// Benchmarks regenerating every experiment table of the reproduction
// (E1–E13, one per theorem/observation/constructive figure — see DESIGN.md
// §4 and EXPERIMENTS.md), plus operation microbenchmarks for the builders
// and the verifier. Each experiment benchmark prints its table once, so
// `go test -bench . -benchtime 1x` reproduces the full result set.
package ftbfs_test

import (
	"fmt"
	"sync"
	"testing"

	ftbfs "repro"
	"repro/internal/exp"
	"repro/internal/verify"
)

var printOnce sync.Map

// runExperiment executes one experiment per b.N iteration and prints the
// table the first time that experiment runs in this process.
func runExperiment(b *testing.B, id string, fn func(exp.Config) (*exp.Table, error)) {
	b.Helper()
	cfg := exp.Config{Sizes: []int{40, 60, 90}, Seeds: 1}
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		tbl, err := fn(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = tbl
	}
	if _, done := printOnce.LoadOrStore(id, true); !done && last != nil {
		fmt.Printf("\n%s\n", last.String())
	}
}

func BenchmarkE1DualSize(b *testing.B)     { runExperiment(b, "E1", exp.E1DualSize) }
func BenchmarkE2LowerBound(b *testing.B)   { runExperiment(b, "E2", exp.E2LowerBound) }
func BenchmarkE3Approx(b *testing.B)       { runExperiment(b, "E3", exp.E3Approx) }
func BenchmarkE4FTDiameter(b *testing.B)   { runExperiment(b, "E4", exp.E4FTDiameter) }
func BenchmarkE5PerVertex(b *testing.B)    { runExperiment(b, "E5", exp.E5PerVertex) }
func BenchmarkE6SingleVsDual(b *testing.B) { runExperiment(b, "E6", exp.E6SingleVsDual) }
func BenchmarkE7Classes(b *testing.B)      { runExperiment(b, "E7", exp.E7Classes) }
func BenchmarkE8Detours(b *testing.B)      { runExperiment(b, "E8", exp.E8Detours) }
func BenchmarkE9Verify(b *testing.B)       { runExperiment(b, "E9", exp.E9Verify) }
func BenchmarkE10Kernel(b *testing.B)      { runExperiment(b, "E10", exp.E10Kernel) }
func BenchmarkE11Ablation(b *testing.B)    { runExperiment(b, "E11", exp.E11Ablation) }
func BenchmarkE12Beyond(b *testing.B)      { runExperiment(b, "E12", exp.E12Beyond) }
func BenchmarkE13Selection(b *testing.B)   { runExperiment(b, "E13", exp.E13Selection) }

// --- operation microbenchmarks -------------------------------------------

func benchBuild(b *testing.B, n int, build func(*ftbfs.Graph) (*ftbfs.Structure, error)) {
	b.Helper()
	g := ftbfs.SparseGNP(n, 6, 2015)
	b.ResetTimer()
	var edges int
	for i := 0; i < b.N; i++ {
		st, err := build(g)
		if err != nil {
			b.Fatal(err)
		}
		edges = st.NumEdges()
	}
	b.ReportMetric(float64(edges), "edges")
	b.ReportMetric(float64(g.M()), "graph-edges")
}

func BenchmarkBuildDual(b *testing.B) {
	for _, n := range []int{40, 80, 160} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchBuild(b, n, func(g *ftbfs.Graph) (*ftbfs.Structure, error) {
				return ftbfs.BuildDualFTBFS(g, 0, nil)
			})
		})
	}
}

// BenchmarkBuildServing times the build ftbfsd's benchmark serves from —
// the two-source dual structure of SparseGNP(1000, 6, 1) — which is most
// of bench/run.sh's setup_s, at one and two workers.
func BenchmarkBuildServing(b *testing.B) {
	g := ftbfs.SparseGNP(1000, 6, 1)
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			var edges int
			for i := 0; i < b.N; i++ {
				st, err := ftbfs.BuildMultiSourceDualFTBFS(g, []int{0, 500}, &ftbfs.Options{Parallelism: p})
				if err != nil {
					b.Fatal(err)
				}
				edges = st.NumEdges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkBuildScale times single-source dual builds of SparseGNP(n, 6, 1)
// from source 0 at one worker, for n past the serving graph's 1000: the
// sizes where the cost per search grows with n.
func BenchmarkBuildScale(b *testing.B) {
	for _, n := range []int{2000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := ftbfs.SparseGNP(n, 6, 1)
			b.ReportAllocs()
			b.ResetTimer()
			var edges int
			for i := 0; i < b.N; i++ {
				st, err := ftbfs.BuildDualFTBFS(g, 0, &ftbfs.Options{Parallelism: 1})
				if err != nil {
					b.Fatal(err)
				}
				edges = st.NumEdges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

func BenchmarkBuildSingle(b *testing.B) {
	for _, n := range []int{40, 80, 160} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchBuild(b, n, func(g *ftbfs.Graph) (*ftbfs.Structure, error) {
				return ftbfs.BuildSingleFTBFS(g, 0, nil)
			})
		})
	}
}

func BenchmarkBuildExhaustiveF2(b *testing.B) {
	benchBuild(b, 30, func(g *ftbfs.Graph) (*ftbfs.Structure, error) {
		return ftbfs.BuildExhaustiveFTBFS(g, 0, 2, nil)
	})
}

// BenchmarkBuildExhaustiveF2Parallel exercises the fan-out path of the
// exhaustive builder (identical output, private engine per worker).
func BenchmarkBuildExhaustiveF2Parallel(b *testing.B) {
	benchBuild(b, 30, func(g *ftbfs.Graph) (*ftbfs.Structure, error) {
		return ftbfs.BuildExhaustiveFTBFS(g, 0, 2, &ftbfs.Options{Parallelism: 4})
	})
}

func BenchmarkBuildApproxF1(b *testing.B) {
	benchBuild(b, 40, func(g *ftbfs.Graph) (*ftbfs.Structure, error) {
		return ftbfs.BuildApproxFTMBFS(g, []int{0}, 1, nil)
	})
}

func BenchmarkVerifyDual(b *testing.B) {
	g := ftbfs.SparseGNP(60, 6, 2015)
	st, err := ftbfs.BuildDualFTBFS(g, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := ftbfs.Verify(g, st, []int{0}, 2)
		if !rep.OK {
			b.Fatal("verification failed")
		}
	}
}

func BenchmarkVerifyDualNoPrune(b *testing.B) {
	g := ftbfs.SparseGNP(60, 6, 2015)
	st, err := ftbfs.BuildDualFTBFS(g, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	opts := &verify.Options{NoPrune: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := ftbfs.VerifyWithOptions(g, st, []int{0}, 2, opts)
		if !rep.OK {
			b.Fatal("verification failed")
		}
	}
}

func BenchmarkLowerBoundBuild(b *testing.B) {
	for _, f := range []int{1, 2} {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			var forced int
			for i := 0; i < b.N; i++ {
				inst, err := ftbfs.LowerBound(f, 400)
				if err != nil {
					b.Fatal(err)
				}
				forced = len(inst.Bipartite)
			}
			b.ReportMetric(float64(forced), "forced-edges")
		})
	}
}
