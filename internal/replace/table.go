package replace

import (
	"slices"

	"repro/internal/wsp"
)

// DistTable is one source's replacement-distance table: dist(s,v,G∖F) for
// every target v and every fault set |F| ≤ 2, read from the distances
// Steps 1–3 of Cons2FTBFS found while building (arXiv:1505.00692 §3). The
// proof that the structure preserves distances splits F by where it
// meets π(s,v) = (e_0, …, e_{l−1}), and the build computes the distance of
// every case in which it changes:
//
//   - F misses π(s,v): l.
//   - F = {e_i}: Step 1's d(e_i).
//   - F = {e_i, f} with f off π: d(e_i, f) from Step 3 when f lies on the
//     detour D_i, else d(e_i), because the Step-1 path P_i =
//     π(s,x_i) ∘ D_i ∘ π(y_i,v) avoids f. Most detour edges have another
//     path of the same length around them (74% on the serving build), so
//     the table keeps only the edges t of D_i with d(e_i, t) > d(e_i).
//   - F = {e_i, e_j}: Step 2's d(e_i, e_j).
//
// Two ancestor tests on T0 place each fault on or off π(s,v): an edge is
// on it exactly when the vertex below it in T0 is an ancestor of v,
// which T0's preorder intervals answer in O(1), and that vertex's depth
// gives the edge's index on π.
//
// Layout: per-vertex arrays over T0 (pre, end, depth), T0's preorder
// (order, the vertex at each preorder index), an edge→child array of
// length m, and one int32 run per target v, runs[off[v]:off[v+1]]
// (empty for the source and unreachable vertices). With l = depth[v] and
// P = l(l−1)/2, a run holds
//
//	[0, l)          d(e_i)
//	[l, l+P)        d(e_i, e_j) for i < j, row by row
//	[l+P, 2l+P)     per e_i, the run offset of D_i's block; 0 when no
//	                edge of D_i lengthens the path, -1 for a marked slot
//	blocks          k, the k edge IDs t of D_i with d(e_i, t) > d(e_i),
//	                then d(e_i, t) per such edge
//
// A slot whose Step-1 path had no valid detour or left π more than once
// (the engine's residual-tie branches, where P_i ≠ π ∘ D_i ∘ π) is
// marked -1, and the table does not answer {e_i, f} with f off π there;
// d(e_i) is always known. All distances are hop counts, -1 when F cuts
// v off. A table is never written after NewDistTable, so it may be read
// from any goroutines.
type DistTable struct {
	pre   []int32 // T0 preorder index of each vertex
	end   []int32 // pre + subtree size: v's subtree is [pre[v], end[v])
	depth []int32 // |π(s,v)|, -1 when v is unreachable from s
	order []int32 // the vertex at each T0 preorder index (reachable ones only)
	child []int32 // per edge: the vertex below it in T0, -1 off T0
	off   []int32 // v's run is runs[off[v]:off[v+1]]
	runs  []int32
}

// AppendDists appends the run of tr, the result BuildTarget just returned,
// to dst in DistTable's layout.
func (e *Engine) AppendDists(dst []int32, tr *TargetResult) []int32 {
	l := len(tr.PiEdgeIDs)
	base := len(dst)
	dst = append(dst, e.d1...)
	dst = append(dst, e.d2...)
	slots := len(dst)
	for range l {
		dst = append(dst, -1)
	}
	for i := range tr.Detours {
		if !e.once[i] {
			continue // marked
		}
		ids, d3 := tr.Detours[i].EdgeIDs, e.d3[e.d3At[i]:]
		at := len(dst)
		dst = append(dst, 0) // k, set below
		for t, id := range ids {
			if d3[t] != e.d1[i] {
				dst = append(dst, int32(id))
			}
		}
		k := len(dst) - at - 1
		if k == 0 {
			dst = dst[:at]
			dst[slots+i] = 0
			continue
		}
		for t := range ids {
			if d3[t] != e.d1[i] {
				dst = append(dst, d3[t])
			}
		}
		dst[at], dst[slots+i] = int32(k), int32(at-base)
	}
	return dst
}

// NewDistTable assembles the table of T0 = t from runs[v], each vertex's
// run as AppendDists wrote it (nil for the source and unreachable
// vertices).
func NewDistTable(t *wsp.Tree, runs [][]int32) *DistTable {
	g := t.Graph()
	n := g.N()
	tab := &DistTable{
		pre:   make([]int32, n),
		end:   make([]int32, n),
		depth: make([]int32, n),
		child: make([]int32, g.M()),
		off:   make([]int32, n+1),
	}
	tab.order = t.Preorder()
	for k, v := range tab.order {
		tab.pre[v] = int32(k)
	}
	// Subtree sizes, children before parents, then shifted to exits.
	for k := len(tab.order) - 1; k >= 0; k-- {
		v := tab.order[k]
		tab.end[v]++
		if p := t.ParentOf(int(v)); p >= 0 {
			tab.end[p] += tab.end[v]
		}
	}
	for id := range tab.child {
		tab.child[id] = -1
	}
	for v := 0; v < n; v++ {
		tab.end[v] += tab.pre[v]
		tab.depth[v] = t.HopDist(v)
		if id := t.ParentEdgeOf(v); id >= 0 {
			tab.child[id] = int32(v)
		}
		tab.off[v+1] = tab.off[v] + int32(len(runs[v]))
	}
	tab.runs = make([]int32, 0, tab.off[n])
	for _, run := range runs {
		tab.runs = append(tab.runs, run...)
	}
	return tab
}

// Bytes returns the table's footprint.
func (t *DistTable) Bytes() int64 {
	return 4 * int64(len(t.pre)+len(t.end)+len(t.depth)+len(t.order)+len(t.child)+len(t.off)+len(t.runs))
}

// Dist returns dist(s,v,G∖F) for the fault set F given as sorted, distinct
// G edge IDs with |F| ≤ 2, or ok = false when the table does not hold it:
// F is {e_i, f} with f off π(s,v) and (v, e_i) a marked slot. It takes no
// lock and does not allocate.
//
//ftbfs:hotpath
func (t *DistTable) Dist(v int, faults []int32) (d int32, ok bool) {
	l := t.depth[v]
	if l <= 0 {
		return l, true // the source, or cut off in G itself
	}
	pv := t.pre[v]
	i, j, off := int32(-1), int32(-1), int32(-1)
	for _, f := range faults {
		if c := t.child[f]; c >= 0 && t.pre[c] <= pv && pv < t.end[c] {
			if i < 0 {
				i = t.depth[c] - 1
			} else {
				j = t.depth[c] - 1
			}
		} else {
			off = f
		}
	}
	if i < 0 {
		return l, true
	}
	run := t.runs[t.off[v]:t.off[v+1]]
	if j >= 0 {
		i, j = min(i, j), max(i, j)
		return run[l+i*(2*l-i-1)/2+j-i-1], true
	}
	if d = run[i]; d < 0 || off < 0 {
		return d, true
	}
	b := run[l+l*(l-1)/2+i]
	if b <= 0 {
		return d, b == 0
	}
	k := run[b]
	for x, id := range run[b+1 : b+1+k] {
		if id == off {
			return run[b+1+k+int32(x)], true
		}
	}
	return d, true
}

// AppendChanged appends to keys, in increasing order, every vertex whose
// distance under F differs from its fault-free distance, and to vals
// those distances, for F given as in Dist. Only a vertex below a faulted
// T0 edge can change, since every other vertex keeps its T0 path, which
// avoids F; and the vertices below a T0 edge are one interval of T0's
// preorder. So it looks up one interval per faulted T0 edge, or only the
// outer one when the two nest. ok is false when a lookup hits a marked
// slot: keys and vals then hold a partial answer, which the caller must
// discard. It takes no lock and allocates only to grow keys and vals.
//
//ftbfs:hotpath
func (t *DistTable) AppendChanged(keys, vals, faults []int32) ([]int32, []int32, bool) {
	var lo, hi [2]int32
	k := 0
	for _, f := range faults {
		c := t.child[f]
		if c < 0 {
			continue // off T0: it moves no vertex
		}
		a, b := t.pre[c], t.end[c]
		switch {
		case k == 1 && lo[0] <= a && b <= hi[0]:
			// Inside the first interval.
		case k == 1 && a <= lo[0] && hi[0] <= b:
			lo[0], hi[0] = a, b
		default:
			lo[k], hi[k] = a, b
			k++
		}
	}
	start := len(keys)
	for x := range k {
		for _, w := range t.order[lo[x]:hi[x]] {
			d, ok := t.Dist(int(w), faults)
			if !ok {
				return keys, vals, false
			}
			if d != t.depth[w] {
				keys = append(keys, w)
			}
		}
	}
	// Sorting the vertices alone and looking their distances up again
	// keeps keys and vals aligned without a scratch array of pairs.
	slices.Sort(keys[start:])
	for _, w := range keys[start:] {
		d, _ := t.Dist(int(w), faults)
		vals = append(vals, d)
	}
	return keys, vals, true
}
