// Package graph is a fixture stub of repro/internal/graph: hotalloctest
// builds composite literals of its Arc type, so the stub only needs Arc.
package graph

// Arc is one directed half-edge of the CSR.
type Arc struct {
	To int32
	ID int32
}
