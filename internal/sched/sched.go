// Package sched is the one fan-out of the build plane: Run spreads an
// index space over a pool of workers, and FaultSets enumerates the fault
// sets hanging off the indices a worker claimed. Every parallel
// enumeration in the module — per-target replacement paths, canonical
// trees per fault set, relevant-fault trees, the exhaustive verifier —
// goes through them, so each has one code path at any worker count.
//
// Static striping (worker wi takes indices wi, wi+W, wi+2W, …) balances
// well when every index costs the same; the incremental repair kernel
// breaks that assumption — a fault event's cost is proportional to the
// subtree it detaches, which varies by orders of magnitude — so a slow
// stripe would leave the other workers idle at the tail. The dispenser
// behind Run hands out contiguous ranges from one atomic cursor instead:
// any idle worker steals the next range, and the grain adapts from coarse
// (amortizing the atomic) to fine (bounding the tail straggle to one small
// range) as the cursor approaches the end.
package sched

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// maxGrain caps a single claim so one early claim cannot swallow a
// constant fraction of a small index space.
const maxGrain = 4096

// dispenser hands out disjoint contiguous ranges covering [0, n).
// Safe for concurrent use by any number of workers.
type dispenser struct {
	cur     atomic.Int64
	n       int64
	workers int64
}

// newDispenser returns a dispenser over [0, n) tuned for the given worker
// count, at least 1 (grain ≈ remaining/(4·workers), clamped to
// [1, maxGrain]).
func newDispenser(n, workers int) *dispenser {
	return &dispenser{n: int64(n), workers: int64(workers)}
}

// next claims the next range [lo, hi). ok is false when the index space
// is exhausted; a worker loops on next until then.
func (d *dispenser) next() (lo, hi int, ok bool) {
	for {
		cur := d.cur.Load()
		if cur >= d.n {
			return 0, 0, false
		}
		grain := min(max((d.n-cur)/(4*d.workers), 1), maxGrain)
		if d.cur.CompareAndSwap(cur, cur+grain) {
			return int(cur), int(cur + grain), true
		}
	}
}

// PanicError is the error of a worker that panicked: the panic's value
// and the stack of the panicking goroutine.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error as "panic: <value>"; the stack is left out, so
// the message is safe to show where a stack is not.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Recover turns a panic into a *PanicError in *err. Call it deferred:
// defer sched.Recover(&err).
func Recover(err *error) {
	if v := recover(); v != nil {
		*err = &PanicError{Value: v, Stack: debug.Stack()}
	}
}

// Run fans the index space [0, units) out over clamp(workers, 1, units)
// workers: worker 0 runs on the caller's goroutine, the rest on their
// own. Each worker w calls work(w, next) once; next claims the next range
// [lo, hi) from one shared dispenser, and a worker loops on it until ok
// is false (with units = 0, the single worker's first claim fails). Any
// claim order covers every index exactly once.
//
// Each worker returns a private partial, and Run returns them in worker
// order so the caller's merge is deterministic. The partials come back
// even on error, so an interrupted pass can still report what it reached.
// The error is ctx.Err() when ctx was cancelled — a cancelled run is
// cancelled, whatever else the workers hit — and otherwise the error of
// the lowest-numbered worker that failed. A worker that panics fails
// with a *PanicError (and the zero partial) while the others run to the
// end, so a panic in a builder never takes the process down. Run does
// not poll ctx itself: workers poll it at their own cadence.
func Run[P any](ctx context.Context, workers, units int,
	work func(w int, next func() (lo, hi int, ok bool)) (P, error)) ([]P, error) {
	workers = max(1, min(workers, units))
	d := newDispenser(units, workers)
	parts := make([]P, workers)
	errs := make([]error, workers)
	do := func(w int) {
		defer Recover(&errs[w])
		parts[w], errs[w] = work(w, d.next)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(w)
		}()
	}
	do(0)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return parts, err
	}
	for _, err := range errs {
		if err != nil {
			return parts, err
		}
	}
	return parts, nil
}

// FaultSets calls visit on every set {a1 < a2 < … < ak} ⊆ [0, n) with
// 1 ≤ k ≤ f and lo ≤ a1 < hi — the fault sets whose smallest index lies
// in a claimed range — in lexicographic order, a set before its
// extensions. Ranges that partition [0, n) therefore visit every nonempty
// set of size ≤ f exactly once. The slice handed to visit is reused
// between calls: copy it to keep it. FaultSets stops and returns false as
// soon as visit returns false.
func FaultSets(lo, hi, n, f int, visit func(set []int) bool) bool {
	if f < 1 {
		return true
	}
	set := make([]int, 1, f)
	for a := lo; a < hi; a++ {
		set[0] = a
		if !extend(set, n, f, visit) {
			return false
		}
	}
	return true
}

// extend visits set, then every extension of it by larger indices below
// n, up to size f. Full-size extensions are visited in the loop rather
// than by recursing: they are most of the sets.
func extend(set []int, n, f int, visit func(set []int) bool) bool {
	if !visit(set) {
		return false
	}
	if len(set) == f {
		return true
	}
	next := append(set, 0)
	for b := set[len(set)-1] + 1; b < n; b++ {
		next[len(set)] = b
		if len(next) == f {
			if !visit(next) {
				return false
			}
		} else if !extend(next, n, f, visit) {
			return false
		}
	}
	return true
}

// NumFaultSets counts the fault sets F ⊆ [0, n) with |F| ≤ f, the empty
// set included, saturating at math.MaxInt64 instead of wrapping: it is
// both the exhaustive builders' work-unit total and the verifier's size
// guard, so an overflow must read as "too many", never as a small or
// negative count.
func NumFaultSets(n, f int) int64 {
	total, c := int64(1), uint64(1)
	for k := 0; k < min(f, n); k++ {
		// C(n, k+1) = C(n, k)·(n−k)/(k+1), exact in 128 bits.
		hi, lo := bits.Mul64(c, uint64(n-k))
		if hi >= uint64(k+1) {
			return math.MaxInt64
		}
		c, _ = bits.Div64(hi, lo, uint64(k+1))
		if c > uint64(math.MaxInt64-total) {
			return math.MaxInt64
		}
		total += int64(c)
	}
	return total
}
