package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// claimAll drains next into a per-worker list of claimed indices.
func claimAll(next func() (int, int, bool)) []int {
	var got []int
	for lo, hi, ok := next(); ok; lo, hi, ok = next() {
		for i := lo; i < hi; i++ {
			got = append(got, i)
		}
	}
	return got
}

// TestDispenserCoversExactly checks that Run's workers claim every index
// exactly once, for index spaces around the grain boundaries, and that
// the pool is clamped to [1, units] workers.
func TestDispenserCoversExactly(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000, 50000} {
		for _, workers := range []int{-1, 0, 1, 3, 8} {
			parts, err := Run(context.Background(), workers, n, func(_ int, next func() (int, int, bool)) ([]int, error) {
				return claimAll(next), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := max(1, min(workers, n)); len(parts) != want {
				t.Fatalf("n=%d workers=%d: %d workers ran, want %d", n, workers, len(parts), want)
			}
			seen := make([]int, n)
			for _, p := range parts {
				for _, i := range p {
					seen[i]++
				}
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d claimed %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestDispenserGrainShrinks checks the adaptive grain: early claims are
// coarse, the final claims are single indices (tail straggle bound).
func TestDispenserGrainShrinks(t *testing.T) {
	d := newDispenser(10000, 2)
	lo, hi, ok := d.next()
	if !ok || hi-lo < 100 {
		t.Fatalf("first claim [%d,%d) too fine for 10000/2 workers", lo, hi)
	}
	var last int
	for {
		lo, hi, ok = d.next()
		if !ok {
			break
		}
		last = hi - lo
	}
	if last != 1 {
		t.Fatalf("final claim spans %d indices, want 1", last)
	}
}

// TestRunPartialsInWorkerOrder: partial w comes back at index w whatever
// order the workers finish in.
func TestRunPartialsInWorkerOrder(t *testing.T) {
	parts, err := Run(context.Background(), 6, 100, func(w int, next func() (int, int, bool)) (int, error) {
		claimAll(next)
		return w, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range parts {
		if w != i {
			t.Fatalf("partial %d came from worker %d", i, w)
		}
	}
}

// TestRunErrorRule: the lowest-numbered failing worker's error wins,
// cancellation beats every worker error, and the partials come back
// either way.
func TestRunErrorRule(t *testing.T) {
	const workers = 4
	// Every worker waits for all the others, so all of them run and fail
	// concurrently; only the error rule picks the winner.
	work := func(ctx context.Context, fail func(w int) bool) ([]int, error) {
		var ready sync.WaitGroup
		ready.Add(workers)
		return Run(ctx, workers, 100, func(w int, next func() (int, int, bool)) (int, error) {
			ready.Done()
			ready.Wait()
			claimAll(next)
			if fail(w) {
				return w + 10, fmt.Errorf("worker %d", w)
			}
			return w + 10, nil
		})
	}
	for _, failing := range [][]int{{3}, {1, 2, 3}, {0, 3}} {
		parts, err := work(context.Background(), func(w int) bool { return slices.Contains(failing, w) })
		if want := fmt.Sprintf("worker %d", failing[0]); err == nil || err.Error() != want {
			t.Fatalf("failing %v: err %v, want %s", failing, err, want)
		}
		if !slices.Equal(parts, []int{10, 11, 12, 13}) {
			t.Fatalf("failing %v: partials %v", failing, parts)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	parts, err := work(ctx, func(int) bool { return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if len(parts) != workers {
		t.Fatalf("cancelled run returned %d partials", len(parts))
	}
}

// lexLess orders fault sets lexicographically, a prefix first.
func lexLess(a, b []int) bool { return slices.Compare(a, b) < 0 }

// TestRunRecoversPanics: a worker that panics mid-range — worker 0 on the
// caller's goroutine or one of its own — fails with a *PanicError that
// holds the value and the stack, while every other worker runs to the end:
// together they cover every index the panicking worker did not claim.
// Alone, the panicking worker returns the zero partial.
func TestRunRecoversPanics(t *testing.T) {
	const units = 1000
	for _, c := range []struct{ workers, panicking int }{{1, 0}, {4, 0}, {4, 3}} {
		var claimed sync.WaitGroup
		claimed.Add(c.workers)
		var lost atomic.Int64 // indices claimed by the panicking worker
		parts, err := Run(context.Background(), c.workers, units, func(w int, next func() (int, int, bool)) (int, error) {
			lo, hi, ok := next()
			claimed.Done()
			claimed.Wait() // every worker holds a range before any panics
			n := 0
			for ; ok; lo, hi, ok = next() {
				for i := lo; i < hi; i++ {
					if w == c.panicking && i >= lo+(hi-lo)/2 {
						lost.Add(int64(hi - lo))
						panic(fmt.Sprintf("worker %d at %d", w, i))
					}
				}
				n += hi - lo
			}
			return n, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%+v: err %v, want a *PanicError", c, err)
		}
		if !strings.HasPrefix(pe.Error(), fmt.Sprintf("panic: worker %d at ", c.panicking)) ||
			!strings.Contains(string(pe.Stack), "TestRunRecoversPanics") {
			t.Fatalf("%+v: error %q, stack %q", c, pe.Error(), pe.Stack)
		}
		total := 0
		for _, n := range parts {
			total += n
		}
		if len(parts) != c.workers || parts[c.panicking] != 0 || (c.workers > 1 && total+int(lost.Load()) != units) {
			t.Fatalf("%+v: partials %v cover %d of %d indices, %d lost to the panic", c, parts, total, units, lost.Load())
		}
	}
}

// TestFaultSetsPartition: any partition of [0, n) into claimed ranges
// visits every nonempty set of size ≤ f exactly once, lexicographically
// within each range, and the count matches NumFaultSets.
func TestFaultSetsPartition(t *testing.T) {
	for n := 0; n <= 12; n++ {
		for f := 0; f <= 3; f++ {
			for _, step := range []int{1, 2, 5, 13} {
				seen := map[string]int{}
				for lo := 0; lo < n; lo += step {
					var prev []int
					FaultSets(lo, min(lo+step, n), n, f, func(set []int) bool {
						if len(set) < 1 || len(set) > f || set[0] < lo || set[0] >= lo+step {
							t.Fatalf("n=%d f=%d: set %v outside range [%d,%d)", n, f, set, lo, lo+step)
						}
						for i := 1; i < len(set); i++ {
							if set[i] <= set[i-1] || set[i] >= n {
								t.Fatalf("n=%d f=%d: malformed set %v", n, f, set)
							}
						}
						if prev != nil && !lexLess(prev, set) {
							t.Fatalf("n=%d f=%d: %v visited after %v", n, f, set, prev)
						}
						prev = slices.Clone(set)
						seen[fmt.Sprint(set)]++
						return true
					})
				}
				for k, c := range seen {
					if c != 1 {
						t.Fatalf("n=%d f=%d: set %s visited %d times", n, f, k, c)
					}
				}
				if want := NumFaultSets(n, f) - 1; int64(len(seen)) != want {
					t.Fatalf("n=%d f=%d step=%d: %d sets visited, want %d", n, f, step, len(seen), want)
				}
			}
		}
	}
}

// TestFaultSetsStops: a false from visit ends the walk at once.
func TestFaultSetsStops(t *testing.T) {
	for _, stopAt := range []int{1, 2, 7, 40} {
		calls := 0
		done := FaultSets(0, 10, 10, 3, func([]int) bool {
			calls++
			return calls < stopAt
		})
		if done || calls != stopAt {
			t.Fatalf("stop at %d: done=%v after %d visits", stopAt, done, calls)
		}
	}
}

// TestNumFaultSetsNoOverflow pins the count where m·(m−1)·(m−2) leaves
// int64 (m = 2,097,154 is the first such m): the count must stay exact
// there and saturate, never wrap, beyond int64.
func TestNumFaultSetsNoOverflow(t *testing.T) {
	for _, m := range []int64{2_097_153, 2_097_154, 3_000_000} {
		want := big.NewInt(1)
		for k := int64(1); k <= 3; k++ {
			want.Add(want, new(big.Int).Binomial(m, k))
		}
		if got := NumFaultSets(int(m), 3); !want.IsInt64() || got != want.Int64() {
			t.Fatalf("m=%d: NumFaultSets = %d, want %s", m, got, want)
		}
	}
	if got := NumFaultSets(1<<40, 3); got != math.MaxInt64 {
		t.Fatalf("m=2^40: NumFaultSets = %d, want saturation at MaxInt64", got)
	}
	if got := NumFaultSets(5, 0); got != 1 {
		t.Fatalf("f=0: NumFaultSets = %d, want 1", got)
	}
}
