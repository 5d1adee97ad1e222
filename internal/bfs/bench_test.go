package bfs

import (
	"fmt"
	"testing"

	"repro/internal/gen"
)

func BenchmarkRunner(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := gen.SparseGNP(n, 8, 1)
			r := NewRunner(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Run(0, nil, nil)
			}
		})
	}
}

func BenchmarkRunnerWithFaults(b *testing.B) {
	g := gen.SparseGNP(400, 8, 1)
	r := NewRunner(g)
	faults := []int{3, 17}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(0, faults, nil)
	}
}

// BenchmarkRunnerLarge times an unmasked run on a graph whose dist array
// outgrows the cache hierarchy (n = 100k). Kept to one size so the
// fixed-count CI bench job stays fast; graph generation happens outside the
// timer.
func BenchmarkRunnerLarge(b *testing.B) {
	g := gen.RandomRegular(100000, 8, 1)
	r := NewRunner(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(0, nil, nil)
	}
}

// BenchmarkRunnerMaskedTiny is the verifier's shape: a small graph queried
// millions of times with a small fault mask (forces the masked scan path).
func BenchmarkRunnerMaskedTiny(b *testing.B) {
	g := gen.SparseGNP(60, 6, 2015)
	r := NewRunner(g)
	faults := []int{3, 17}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(0, faults, nil)
	}
}
