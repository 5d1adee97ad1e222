package snap

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// fuzzSeeds returns valid encodings to seed the corpus: small structures
// of each fault model, so mutation explores the real format rather than
// bouncing off the magic check.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	var out [][]byte
	add := func(st *core.Structure, err error, meta Meta) {
		f.Helper()
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, &Snapshot{Structure: st, Meta: meta}); err != nil {
			f.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	st, err := core.BuildDual(gen.PathGraph(5), 0, nil)
	add(st, err, Meta{Graph: "p", Build: "b1", Mode: "dual"})
	st, err = core.BuildDual(gen.GNP(12, 0.3, 3), 0, nil)
	add(st, err, Meta{})
	st, err = core.BuildExhaustive(gen.Cycle(6), 0, 1, nil)
	add(st, err, Meta{Seed: -1, ElapsedMS: 0.25})
	st, err = core.BuildVertexExhaustive(gen.Grid(3, 3), 0, 1, nil)
	add(st, err, Meta{Graph: "vertex"})
	return append(out, v2Fixture(f)) // legacy version 2: exercises VPRM
}

// FuzzDecode feeds arbitrary bytes to the decoder: it must never panic,
// and whenever it accepts an input, re-encoding the decoded snapshot and
// decoding again must reproduce an observationally identical snapshot
// (encode→decode is the identity on everything a snapshot can represent).
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(bytes.NewReader(data))
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("decode error %v is not a *FormatError", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, snap); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		again, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoding failed: %v", err)
		}
		if again.Structure.G.N() != snap.Structure.G.N() ||
			again.Structure.G.M() != snap.Structure.G.M() ||
			again.Structure.Edges.Len() != snap.Structure.Edges.Len() ||
			again.Structure.Faults != snap.Structure.Faults {
			t.Fatalf("round-trip drift: %d/%d/%d/%d vs %d/%d/%d/%d",
				again.Structure.G.N(), again.Structure.G.M(), again.Structure.Edges.Len(), again.Structure.Faults,
				snap.Structure.G.N(), snap.Structure.G.M(), snap.Structure.Edges.Len(), snap.Structure.Faults)
		}
	})
}
