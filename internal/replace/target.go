package replace

import (
	"sort"

	"repro/internal/path"
	"repro/internal/wsp"
)

// TargetResult is everything Cons2FTBFS computes for one target vertex v:
// the canonical path π(s,v), the Step-1 detours, the chosen edge set H(v),
// and (optionally) a record per replacement path for structural analysis.
type TargetResult struct {
	V  int
	Pi path.Path
	// PiEdgeIDs[i] is the ID of the edge between π positions i and i+1.
	PiEdgeIDs []int
	// Detours[i] is the detour of the Step-1 path for edge i of π.
	Detours []Detour
	// HEdges is H(v): the IDs of the edges incident to v kept by the
	// algorithm (tree edges of v plus all last edges from Steps 1–3).
	HEdges []int
	// NewEdges is H(v) minus E(v, T0): the "new" edges charged to v in
	// the size analysis.
	NewEdges []int
	// E1Count, E2Count are |E1(π)\T0| and |E2(π)\(E1∪T0)| (Obs. 3.17,
	// Lemma 3.18). NewEndingPiD counts Step-3 new-ending paths.
	E1Count, E2Count, NewEndingPiD int
	// Records holds one entry per replacement path considered, in
	// processing order, when collection is enabled.
	Records []Record
}

// BuildTarget runs Steps 1–3 of Cons2FTBFS for target v. When collect is
// true, every replacement path is retained in Records (memory-heavy; meant
// for analysis and tests). It returns nil when v is the source or v is
// unreachable from the source.
func (e *Engine) BuildTarget(v int, collect bool) *TargetResult {
	tr, inH := e.startTarget(v)
	if tr == nil {
		return nil
	}
	e.step1(tr, inH, collect)
	e.step2(tr, inH, collect)
	e.step3(tr, inH, collect)
	e.finishTarget(tr, inH)
	return tr
}

// BuildTargetSingle runs only Step 1 for target v, producing the
// single-failure structure of [10] (baseline in the experiments). It returns
// nil when v is the source or unreachable.
func (e *Engine) BuildTargetSingle(v int, collect bool) *TargetResult {
	tr, inH := e.startTarget(v)
	if tr == nil {
		return nil
	}
	e.step1(tr, inH, collect)
	e.finishTarget(tr, inH)
	return tr
}

// startTarget computes π(s,v) with its edge IDs, stamps π for piPos, and
// returns H(v) seeded with E(v, T0). It returns a nil result when v is the
// source or unreachable.
func (e *Engine) startTarget(v int) (*TargetResult, map[int]bool) {
	if v == e.s || e.t.HopDist(v) < 0 {
		return nil, nil
	}
	tr := &TargetResult{V: v, Pi: e.PiTo(v)}
	l := tr.Pi.Len()
	tr.PiEdgeIDs = make([]int, l)
	for i := 0; i < l; i++ {
		id, ok := e.g.EdgeID(tr.Pi[i], tr.Pi[i+1])
		if !ok {
			return nil, nil // cannot happen: π edges exist
		}
		tr.PiEdgeIDs[i] = id
	}
	e.stampPi(tr)

	// H(v) starts from E(v, T0).
	inH := make(map[int]bool)
	for _, id := range e.TreeEdgesAt(v) {
		inH[id] = true
	}
	return tr, inH
}

// finishTarget records H(v) as sorted HEdges and its non-tree part as
// NewEdges.
func (e *Engine) finishTarget(tr *TargetResult, inH map[int]bool) {
	tr.HEdges = make([]int, 0, len(inH))
	for id := range inH {
		tr.HEdges = append(tr.HEdges, id)
	}
	sort.Ints(tr.HEdges)
	tree := make(map[int]bool)
	for _, id := range e.TreeEdgesAt(tr.V) {
		tree[id] = true
	}
	for _, id := range tr.HEdges {
		if !tree[id] {
			tr.NewEdges = append(tr.NewEdges, id)
		}
	}
}

// stampPi refreshes the vertex→π-position index for this target.
func (e *Engine) stampPi(tr *TargetResult) {
	stamp := tr.V + 1
	for i, u := range tr.Pi {
		e.onPi[u] = int32(i)
		e.piStamp[u] = stamp
	}
	e.curPiStamp = stamp
}

// piPos returns the position of u on the current π, or -1.
func (e *Engine) piPos(u int) int {
	if e.piStamp[u] == e.curPiStamp {
		return int(e.onPi[u])
	}
	return -1
}

// ---------------------------------------------------------------------------
// Step 1: single-fault replacement paths with earliest π-divergence.
// ---------------------------------------------------------------------------

func (e *Engine) step1(tr *TargetResult, inH map[int]bool, collect bool) {
	l := tr.Pi.Len()
	tr.Detours = make([]Detour, l)
	for i := 0; i < l; i++ {
		rec := e.singleFault(tr, i)
		if rec.Path != nil {
			tr.Detours[i] = e.extractDetour(tr, rec.Path)
			if !inH[rec.LastEdgeID] {
				rec.NewEnding = true
				inH[rec.LastEdgeID] = true
				tr.E1Count++
			}
		}
		if collect {
			tr.Records = append(tr.Records, rec)
		}
	}
}

// singleFault computes P(s,v,{e_i}) with the earliest-divergence rule.
func (e *Engine) singleFault(tr *TargetResult, i int) Record {
	rec := Record{
		Kind:       KindSingle,
		EIdx:       i,
		SecondIdx:  -1,
		FaultIDs:   []int{tr.PiEdgeIDs[i]},
		LastEdgeID: -1,
		BPos:       -1,
		CPos:       -1,
	}
	v := tr.V
	eid := tr.PiEdgeIDs[i]
	e.run(e.s, wsp.Options{Target: v, DisabledEdges: []int{eid}})
	d := e.search.HopDist(v)
	if d < 0 {
		rec.Unreachable = true
		return rec
	}
	// Binary search the minimal k in [0, i] such that the restricted graph
	// G(u_k, u_i) \ {e_i} still realizes distance d. The predicate is
	// monotone because larger k disables fewer π vertices.
	pred := func(k int) bool {
		e.disabledV = e.disabledV[:0]
		for j := k + 1; j <= i; j++ {
			e.disabledV = append(e.disabledV, tr.Pi[j])
		}
		e.run(e.s, wsp.Options{Target: v, DisabledEdges: []int{eid}, DisabledVertices: e.disabledV})
		return e.search.HopDist(v) == d
	}
	lo, hi := 0, i // pred(i) is true: G(u_i,u_i) = G
	for lo < hi {
		mid := (lo + hi) / 2
		if pred(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// Re-run at the chosen k to materialize the path.
	if !pred(lo) {
		// Only possible under residual ties; fall back to the canonical path.
		e.stats.Fallbacks++
		rec.UsedFallback = true
		e.run(e.s, wsp.Options{Target: v, DisabledEdges: []int{eid}})
	}
	p := e.search.PathTo(v)
	rec.Path = p
	if le, ok := p.LastEdge(); ok {
		if id, ok := e.g.EdgeID(le.U, le.V); ok {
			rec.LastEdgeID = id
		}
	}
	rec.BPos = p.FirstDivergence(tr.Pi)
	return rec
}

// extractDetour pulls the detour segment out of a Step-1 path: the maximal
// segment between the first divergence from π and the first return to π.
func (e *Engine) extractDetour(tr *TargetResult, p path.Path) Detour {
	// First divergence position on p (p and π share a prefix).
	b := p.FirstDivergence(tr.Pi)
	if b < 0 || b == p.Len() {
		return Detour{} // follows π entirely (possible only under ties)
	}
	// First return to π strictly after b.
	y := -1
	for j := b + 1; j < len(p); j++ {
		if e.piPos(p[j]) >= 0 {
			y = j
			break
		}
	}
	if y < 0 {
		return Detour{}
	}
	seg := p.Sub(b, y).Clone()
	d := Detour{
		Valid:   true,
		Path:    seg,
		XPos:    e.piPos(p[b]),
		YPos:    e.piPos(p[y]),
		EdgeIDs: make([]int, 0, seg.Len()),
	}
	for k := 0; k+1 < len(seg); k++ {
		id, _ := e.g.EdgeID(seg[k], seg[k+1])
		d.EdgeIDs = append(d.EdgeIDs, id)
	}
	return d
}

// ---------------------------------------------------------------------------
// Step 2: (π,π) pairs.
// ---------------------------------------------------------------------------

func (e *Engine) step2(tr *TargetResult, inH map[int]bool, collect bool) {
	l := tr.Pi.Len()
	for i := 0; i < l; i++ {
		for j := i + 1; j < l; j++ {
			rec := e.piPiPair(tr, i, j)
			if rec.Path != nil {
				if !inH[rec.LastEdgeID] {
					rec.NewEnding = true
					inH[rec.LastEdgeID] = true
					tr.E2Count++
				}
			}
			if collect {
				tr.Records = append(tr.Records, rec)
			}
		}
	}
}

// piPiPair computes P(s,v,{e_i,e_j}) for two π edges, preferring the
// composition of the Step-1 detours when it is a valid shortest path.
func (e *Engine) piPiPair(tr *TargetResult, i, j int) Record {
	rec := Record{
		Kind:       KindPiPi,
		EIdx:       i,
		SecondIdx:  j,
		FaultIDs:   []int{tr.PiEdgeIDs[i], tr.PiEdgeIDs[j]},
		LastEdgeID: -1,
		BPos:       -1,
		CPos:       -1,
	}
	v := tr.V
	e.run(e.s, wsp.Options{Target: v, DisabledEdges: rec.FaultIDs})
	d := e.search.HopDist(v)
	if d < 0 {
		rec.Unreachable = true
		return rec
	}
	if p := e.composeDetours(tr, i, j, d, rec.FaultIDs); p != nil {
		rec.Path = p
	} else {
		// Canonical shortest path in G \ F (search state already holds it).
		rec.Path = e.search.PathTo(v)
	}
	if le, ok := rec.Path.LastEdge(); ok {
		if id, ok := e.g.EdgeID(le.U, le.V); ok {
			rec.LastEdgeID = id
		}
	}
	rec.BPos = rec.Path.FirstDivergence(tr.Pi)
	return rec
}

// composeDetours builds the paper's preferred (π,π) candidate
// π(s,x_i) ∘ D_i[x_i,w] ∘ D_j[w,y_j] ∘ π(y_j,v), where w is the last vertex
// on D_j common to D_i, and returns it only when it is a valid simple
// shortest path avoiding both faults.
func (e *Engine) composeDetours(tr *TargetResult, i, j int, d int32, faults []int) path.Path {
	di, dj := &tr.Detours[i], &tr.Detours[j]
	if !di.Valid || !dj.Valid {
		return nil
	}
	onDi := make(map[int]int, len(di.Path))
	for pos, u := range di.Path {
		onDi[u] = pos
	}
	w, wOnDi, wOnDj := -1, -1, -1
	for pos, u := range dj.Path {
		if pi, ok := onDi[u]; ok {
			w, wOnDi, wOnDj = u, pi, pos
		}
	}
	if w < 0 {
		return nil
	}
	prefix := tr.Pi.Sub(0, di.XPos)
	mid1 := di.Path.Sub(0, wOnDi)
	mid2 := dj.Path.Sub(wOnDj, len(dj.Path)-1)
	suffix := tr.Pi.Sub(dj.YPos, len(tr.Pi)-1)
	p := prefix.Concat(mid1)
	if p == nil {
		return nil
	}
	p = p.Concat(mid2)
	if p == nil {
		return nil
	}
	p = p.Concat(suffix)
	if p == nil {
		return nil
	}
	if int32(p.Len()) != d || !p.IsSimple() {
		return nil
	}
	if p.ContainsAnyEdgeID(e.g, faults) {
		return nil
	}
	return p
}

// ---------------------------------------------------------------------------
// Step 3: (π,D) pairs in decreasing fault order.
// ---------------------------------------------------------------------------

// piDFault identifies one (e_i, t_j) pair: π edge index and detour position.
type piDFault struct {
	eIdx int // index of e_i on π
	tIdx int // index of t_j on the detour D_i (edge between detour positions tIdx, tIdx+1)
}

func (e *Engine) step3(tr *TargetResult, inH map[int]bool, collect bool) {
	// Enumerate F_v(D) and sort it in the paper's decreasing order:
	// deeper e_i first; within one e_i, deeper t_j first.
	var faults []piDFault
	for i := range tr.Detours {
		if !tr.Detours[i].Valid {
			continue
		}
		for t := range tr.Detours[i].EdgeIDs {
			faults = append(faults, piDFault{eIdx: i, tIdx: t})
		}
	}
	sort.Slice(faults, func(a, b int) bool {
		if faults[a].eIdx != faults[b].eIdx {
			return faults[a].eIdx > faults[b].eIdx
		}
		return faults[a].tIdx > faults[b].tIdx
	})

	for _, f := range faults {
		rec := e.piDPair(tr, f, inH)
		if rec.NewEnding {
			inH[rec.LastEdgeID] = true
			tr.NewEndingPiD++
		}
		if collect {
			tr.Records = append(tr.Records, rec)
		}
	}
}

// disabledNonHEdges fills e.disabledE with the edges incident to v that are
// NOT in the current structure (realizing the graph G_τ(v)).
func (e *Engine) disabledNonHEdges(v int, inH map[int]bool, extra []int) []int {
	e.disabledE = e.disabledE[:0]
	for _, a := range e.g.Arcs(v) {
		if !inH[int(a.ID)] {
			e.disabledE = append(e.disabledE, int(a.ID))
		}
	}
	e.disabledE = append(e.disabledE, extra...)
	return e.disabledE
}

// piDPair processes one (π,D) fault pair at its turn τ.
func (e *Engine) piDPair(tr *TargetResult, f piDFault, inH map[int]bool) Record {
	det := &tr.Detours[f.eIdx]
	rec := Record{
		Kind:       KindPiD,
		EIdx:       f.eIdx,
		SecondIdx:  f.tIdx,
		FaultIDs:   []int{tr.PiEdgeIDs[f.eIdx], det.EdgeIDs[f.tIdx]},
		LastEdgeID: -1,
		BPos:       -1,
		CPos:       -1,
	}
	v := tr.V
	e.run(e.s, wsp.Options{Target: v, DisabledEdges: rec.FaultIDs})
	d := e.search.HopDist(v)
	if d < 0 {
		rec.Unreachable = true
		return rec
	}
	// Satisfied by the current structure G_{τ-1}(v)?
	masks := e.disabledNonHEdges(v, inH, rec.FaultIDs)
	e.run(e.s, wsp.Options{Target: v, DisabledEdges: masks})
	if e.search.HopDist(v) == d {
		rec.Path = e.search.PathTo(v)
		if le, ok := rec.Path.LastEdge(); ok {
			if id, ok := e.g.EdgeID(le.U, le.V); ok {
				rec.LastEdgeID = id
			}
		}
		rec.BPos = rec.Path.FirstDivergence(tr.Pi)
		rec.CPos = e.detourDivergence(det, rec.Path)
		return rec
	}
	// New-ending: select the path with the highest π-divergence point.
	p := e.newEndingPiD(tr, f, d, rec.FaultIDs, &rec)
	rec.Path = p
	rec.NewEnding = true
	if le, ok := p.LastEdge(); ok {
		if id, ok := e.g.EdgeID(le.U, le.V); ok {
			rec.LastEdgeID = id
		}
	}
	rec.BPos = p.FirstDivergence(tr.Pi)
	rec.CPos = e.detourDivergence(det, p)
	return rec
}

// newEndingPiD realizes the Step-3 selection: binary-search the topmost
// divergence point u_k from π; if the selected path diverges at the detour's
// own start x_τ, further binary-search the earliest divergence point w_ℓ
// from the detour (Eq. 4) and route the path through the detour prefix.
func (e *Engine) newEndingPiD(tr *TargetResult, f piDFault, d int32, faults []int, rec *Record) path.Path {
	v := tr.V
	det := &tr.Detours[f.eIdx]
	l := len(tr.Pi) - 1 // position of v on π

	// G(u_k, v): disable π interior strictly between u_k and v.
	pred := func(k int) bool {
		e.disabledV = e.disabledV[:0]
		for j := k + 1; j < l; j++ {
			e.disabledV = append(e.disabledV, tr.Pi[j])
		}
		e.run(e.s, wsp.Options{Target: v, DisabledEdges: faults, DisabledVertices: e.disabledV})
		return e.search.HopDist(v) == d
	}
	lo, hi := 0, f.eIdx
	for lo < hi {
		mid := (lo + hi) / 2
		if pred(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if !pred(lo) {
		// No divergence point above e_i realizes the distance — residual
		// tie artifact. Canonical fallback keeps the structure correct.
		e.stats.Fallbacks++
		rec.UsedFallback = true
		e.run(e.s, wsp.Options{Target: v, DisabledEdges: faults})
		return e.search.PathTo(v)
	}
	p := e.search.PathTo(v) // canonical path in G(u_lo, v) \ F
	bPos := p.FirstDivergence(tr.Pi)
	if bPos < 0 || tr.Pi[bPos] != det.X() {
		return p
	}

	// b == x_τ: enforce the earliest divergence from the detour.
	// GD(w_ℓ) additionally disables detour vertices strictly after w_ℓ.
	xPos := det.XPos
	maskD := func(ell int) {
		e.disabledV = e.disabledV[:0]
		for j := xPos + 1; j < l; j++ {
			e.disabledV = append(e.disabledV, tr.Pi[j])
		}
		for j := ell + 1; j < len(det.Path); j++ {
			if det.Path[j] != v {
				e.disabledV = append(e.disabledV, det.Path[j])
			}
		}
	}
	predD := func(ell int) bool {
		maskD(ell)
		e.run(e.s, wsp.Options{Target: v, DisabledEdges: faults, DisabledVertices: e.disabledV})
		return e.search.HopDist(v) == d
	}
	lo2, hi2 := 0, f.tIdx
	for lo2 < hi2 {
		mid := (lo2 + hi2) / 2
		if predD(mid) {
			hi2 = mid
		} else {
			lo2 = mid + 1
		}
	}
	if !predD(lo2) {
		// The divergence from π at x_τ is realizable but no detour prefix
		// works (tie artifact); fall back to the G(u_k,v) path.
		e.stats.Fallbacks++
		rec.UsedFallback = true
		pred(lo)
		return e.search.PathTo(v)
	}
	// Compose π(s,x_τ) ∘ D_τ[x_τ,w_ℓ] ∘ SP(w_ℓ, v, GD(w_ℓ) \ F, W) as the
	// paper prescribes, falling back to the canonical GD(w_ℓ) path when
	// the composition is not a valid shortest path (tie artifact).
	maskD(lo2)
	e.run(det.Path[lo2], wsp.Options{Target: v, DisabledEdges: faults, DisabledVertices: e.disabledV})
	tail := e.search.PathTo(v)
	if tail != nil {
		composed := tr.Pi.Sub(0, xPos).Concat(det.Path.Sub(0, lo2))
		if composed != nil {
			composed = composed.Concat(tail)
		}
		if composed != nil && int32(composed.Len()) == d && composed.IsSimple() &&
			!composed.ContainsAnyEdgeID(e.g, faults) {
			return composed
		}
	}
	predD(lo2)
	return e.search.PathTo(v)
}

// detourDivergence returns the position on the detour of the first
// divergence point of p from the detour, when p actually follows the detour
// from its start; -1 otherwise. This is the paper's c(P) for (π,D) paths
// that intersect their detour.
func (e *Engine) detourDivergence(det *Detour, p path.Path) int {
	if !det.Valid || p == nil {
		return -1
	}
	// Locate x = det.Path[0] on p.
	x := det.Path.First()
	xOnP := -1
	for i, u := range p {
		if u == x {
			xOnP = i
			break
		}
	}
	if xOnP < 0 {
		return -1
	}
	// Walk both in lockstep from x.
	i := 0
	for i+1 < len(det.Path) && xOnP+i+1 < len(p) && p[xOnP+i+1] == det.Path[i+1] {
		i++
	}
	if i == 0 {
		// p leaves the detour immediately at x: c = x only if p actually
		// shares the first detour edge; otherwise p does not follow D.
		return -1
	}
	return i
}
