// Package oracle answers fault-tolerant distance and routing queries on a
// built FT-BFS structure: given a target v and a fault set F (|F| ≤ f),
// it returns dist(s, v, G \ F) and a realizing path, computed entirely
// inside the structure H — which is the point of the structure: H \ F
// provably contains such a path (the paper's motivating routing scenario).
//
// The package is organized for concurrent serving. An OracleSet holds the
// shared immutable state — the materialized subgraph H, the G→H edge-ID
// mapping, and a two-tier byte-budgeted memo of per-failure-event distance
// tables — built once per structure. Per-goroutine Oracle handles carry
// only repair scratch and are cheap to create (or recycle through
// Acquire/Release), so one failure event's BFS is computed once and shared
// across every concurrent client — by distance lookups and routes alike.
//
// The memo's two tiers (see cache.go): tier 0 is each source's fault-free
// BFS tree, pinned by the constructor outside the LRU — the base every
// handle's repairer patches faults against, and whose distance table every
// delta decodes against — and tier 1 stores failure events as deltas
// against that base whenever the incremental repairer proves the event
// only touched a small region, so a byte budget holds orders of magnitude
// more events than full 4n-byte tables would.
package oracle

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/path"
)

// DefaultCacheBytes is the memo budget NewSet applies when given 0;
// least-recently-used failure events are evicted first (queries stay
// correct, just uncached).
const DefaultCacheBytes = 256 << 20

// ErrCode says which check rejected a query.
type ErrCode uint8

const (
	ErrBadSource   ErrCode = iota + 1 // source is not one of the structure's sources
	ErrBadTarget                      // target outside the vertex range
	ErrBadFault                       // fault edge ID outside the edge range
	ErrFaultBudget                    // more distinct faults than the structure tolerates
)

// QueryError is the error every query method returns for a query the
// structure cannot answer: a code for machine consumers and the message
// for people.
type QueryError struct {
	Code ErrCode
	msg  string
}

func (e *QueryError) Error() string { return e.msg }

func queryErr(code ErrCode, format string, args ...any) error {
	return &QueryError{Code: code, msg: fmt.Sprintf(format, args...)}
}

// OracleSet is the shared, immutable query state over one structure: the
// materialized subgraph H, the G→H edge-ID translation, the pinned
// per-source base trees, and a concurrency-safe bounded memo of
// per-failure-event distance tables keyed by canonicalized fault sets. It
// is safe for concurrent use; obtain per-goroutine handles with Handle or
// Acquire.
//
// The set materializes the structure as its own compact graph once, so
// every query traverses only H's edges — on sparse structures this is the
// whole point of buying H instead of G.
type OracleSet struct {
	st     *core.Structure
	sub    *graph.Graph
	gToSub []int32 // G edge ID -> sub edge ID, -1 when absent from H
	cache  *shardedCache
	pool   sync.Pool

	// Tier 0: one fault-free BFS tree per structure source (indexed like
	// st.Sources), built by the constructor — memo on or off — and never
	// evicted or written. Every miss repairs against its source's tree,
	// and every delta entry in the memo decodes against the tree's
	// distances, so the tree must outlive all of them.
	trees       []*bfs.Tree
	pinnedBytes int64
	baseHits    atomic.Int64 // empty-fault-set queries served from a tree
}

// NewSet builds the shared query state for st. Its memo holds as many
// failure events as fit in cacheBytes: 0 means DefaultCacheBytes, and a
// negative budget turns the memo off. Delta-encoded events are charged
// only for what the fault actually changed, so a budget typically holds
// 10–100× more events than full tables would. The pinned fault-free base
// trees are accounted separately (CacheStats.PinnedBytes) and never
// evicted. The memo is sharded by key hash across ~GOMAXPROCS
// independently-locked shards (see defaultShardCount).
func NewSet(st *core.Structure, cacheBytes int64) (*OracleSet, error) {
	if cacheBytes == 0 {
		cacheBytes = DefaultCacheBytes
	}
	return newSet(st, cacheBytes, defaultShardCount(cacheBytes))
}

// NewSetBudget keeps the former general constructor's signature for its
// only caller, the traced replay in bench/trace.go, and is deleted with
// it. Only a byte budget is accepted: (0, b, 0) is NewSet(st, b) for
// b > 0 and a set with the memo off for b ≤ 0; a nonzero entry cap or
// shard count is an error.
func NewSetBudget(st *core.Structure, cacheEntries int, cacheBytes int64, shards int) (*OracleSet, error) {
	if cacheEntries != 0 || shards != 0 {
		return nil, fmt.Errorf("oracle: NewSetBudget takes only a byte budget, not entry cap %d or shard count %d", cacheEntries, shards)
	}
	if cacheBytes <= 0 {
		cacheBytes = -1
	}
	return NewSet(st, cacheBytes)
}

// newSet is NewSet with an explicit shard count, a power of two; a budget
// ≤ 0 turns the memo off. Tests use it to pin the shard count.
func newSet(st *core.Structure, cacheBytes int64, shards int) (*OracleSet, error) {
	if len(st.Sources) == 0 {
		return nil, fmt.Errorf("oracle: structure has no sources")
	}
	s := &OracleSet{
		st:    st,
		cache: newShardedCache(cacheBytes, shards),
		trees: make([]*bfs.Tree, len(st.Sources)),
	}
	// Materialize H directly in CSR form; sub edge IDs are assigned in
	// increasing G-edge-ID order, no per-edge hashing involved.
	s.sub, s.gToSub = st.G.SubgraphMapped(st.Edges)
	for i, src := range st.Sources {
		s.trees[i] = bfs.NewTree(s.sub, src)
		s.pinnedBytes += s.trees[i].Bytes()
	}
	s.pool.New = func() any { return s.Handle() }
	return s, nil
}

// Structure returns the underlying structure.
func (s *OracleSet) Structure() *core.Structure { return s.st }

// CacheStats returns a snapshot of the shared memo's counters: the tier-1
// shard sums plus the tier-0 tree hits and bytes.
func (s *OracleSet) CacheStats() CacheStats {
	cs := s.cache.stats()
	cs.Hits += s.baseHits.Load()
	cs.PinnedBytes = s.pinnedBytes
	return cs
}

// Handle returns a fresh per-goroutine query handle over the shared state.
// Handles are not safe for concurrent use; the set they share is.
func (s *OracleSet) Handle() *Oracle {
	return &Oracle{set: s}
}

// Acquire returns a pooled handle; pair with Release on the hot serving
// path to avoid re-allocating BFS scratch per request.
func (s *OracleSet) Acquire() *Oracle { return s.pool.Get().(*Oracle) }

// Release returns a handle obtained from Acquire to the pool. The handle
// must not be used afterwards.
func (s *OracleSet) Release(o *Oracle) {
	if o.set != s {
		panic("oracle: Release of a handle from a different set")
	}
	s.pool.Put(o)
}

// Oracle is a per-goroutine query handle over a shared OracleSet: repair
// scratch plus key-canonicalization buffers. It owns no base tree — its
// repairer runs against the set's pinned ones. It is not safe for
// concurrent use; create one per goroutine with OracleSet.Handle (they
// share the set's materialized subgraph, trees and memo).
type Oracle struct {
	set    *OracleSet
	rep    *bfs.Repairer // lazy: built on the first uncached query
	faults []int         // scratch: fault IDs translated into sub-graph IDs
	canon  []int32       // scratch: sorted G fault IDs forming the cache key
	dists  []int32       // scratch: Dists materialization of delta-encoded views
}

func (o *Oracle) ensureRep() {
	if o.rep == nil {
		o.rep = bfs.NewRepairer(o.set.sub)
	}
}

// prepare canonicalizes the fault set and validates the query against the
// structure: the fault BUDGET is checked against the number of DISTINCT
// faults (listing an edge twice describes the same failure event as
// listing it once), while the range check covers the raw IDs before their
// int32 conversion. Returns the canonical key and the index of s in the
// structure's source list (the pinned-tree slot).
func (o *Oracle) prepare(s int, faults []int) ([]int32, int, error) {
	st := o.set.st
	srcIdx := -1
	for i, src := range st.Sources {
		if src == s {
			srcIdx = i
			break
		}
	}
	if srcIdx < 0 {
		return nil, -1, queryErr(ErrBadSource, "oracle: %d is not a structure source %v", s, st.Sources)
	}
	m := st.G.M()
	for _, id := range faults {
		if id < 0 || id >= m {
			return nil, -1, queryErr(ErrBadFault, "oracle: fault edge %d out of range [0,%d)", id, m)
		}
	}
	canon := o.canonicalize(faults)
	if len(canon) > st.Faults {
		return nil, -1, queryErr(ErrFaultBudget, "oracle: %d distinct faults exceed budget %d", len(canon), st.Faults)
	}
	return canon, srcIdx, nil
}

// canonicalize fills o.canon with the sorted, deduplicated fault IDs — the
// canonical per-failure-event key — without allocating once the scratch
// has grown. Deduplication matters: faults {3,3} and {3} are the same
// failure event and must share one cache entry and one budget slot.
//
//ftbfs:hotpath
func (o *Oracle) canonicalize(faults []int) []int32 {
	o.canon = o.canon[:0]
	for _, id := range faults {
		o.canon = append(o.canon, int32(id))
	}
	slices.Sort(o.canon)
	o.canon = slices.Compact(o.canon)
	return o.canon
}

// translate maps canonical G fault IDs into sub-graph IDs, dropping faults
// on edges H never kept (removing an absent edge is a no-op).
//
//ftbfs:hotpath
func (o *Oracle) translate(canon []int32) []int {
	o.faults = o.faults[:0]
	for _, id := range canon {
		if sid := o.set.gToSub[id]; sid >= 0 {
			o.faults = append(o.faults, int(sid))
		}
	}
	return o.faults
}

// run executes (or recalls) the BFS for the canonical key and returns a
// view of the distance table over H \ F.
//
// The tiers: an empty fault set is the source's fault-free table, read
// from its pinned tier-0 tree. A faulted event is looked up in the tier-1
// memo; only on a miss is the incremental repairer run against the tree,
// and the result is stored as a delta against the tree's
// table when the repairer proved the changed region is at most
// n/deltaDenom vertices (the repairer tracked the region anyway, so
// encoding is one sort + gather), as a full table otherwise.
//
// Every view returned references immutable memory — pinned trees, cached
// entries (still immutable after eviction), or a fresh allocation on the
// uncacheable paths — so callers may retain views across queries; they
// must never mutate them.
func (o *Oracle) run(s, srcIdx int, canon []int32) DistView {
	set := o.set
	t := set.trees[srcIdx]
	if len(canon) == 0 {
		if set.cache.enabled {
			set.baseHits.Add(1)
		}
		return DistView{Full: t.Dists()}
	}
	h := hashKey(s, canon)
	if v, ok := set.cache.get(h, int32(s), canon); ok {
		return v
	}
	o.ensureRep()
	o.rep.RunFrom(t, o.translate(canon))
	out := o.rep.Dists()
	if changed, incremental := o.rep.Changed(); incremental && len(changed) <= len(out)/deltaDenom {
		k := len(changed)
		e, p := newEntry(h, int32(s), canon, t.Dists(), 2*k)
		keys, vals := p[:k], p[k:]
		copy(keys, changed)
		slices.Sort(keys)
		for i, v := range keys {
			vals[i] = out[v]
		}
		return set.cache.add(e)
	}
	e, full := newEntry(h, int32(s), canon, nil, len(out))
	copy(full, out)
	return set.cache.add(e)
}

// Dist returns dist(s, v, G \ F) answered inside the structure
// (bfs.Unreachable when v is cut off in G \ F as well). On a memo hit this
// is a point lookup: a full-table index, or a short binary search of a
// delta entry falling back to the pinned base.
func (o *Oracle) Dist(s, v int, faults []int) (int32, error) {
	canon, srcIdx, err := o.prepare(s, faults)
	if err != nil {
		return bfs.Unreachable, err
	}
	if v < 0 || v >= o.set.st.G.N() {
		return bfs.Unreachable, queryErr(ErrBadTarget, "oracle: target %d out of range", v)
	}
	return o.run(s, srcIdx, canon).At(v), nil
}

// Dists returns the full distance table for one failure event. The slice
// is either shared immutable cache state or handle-owned scratch
// (delta-encoded events materialize into the handle's buffer, overwritten
// by this handle's next Dists call); in both cases callers must not mutate
// it, and must copy it to retain it across queries. Use DistsView to avoid
// materializing deltas at all.
func (o *Oracle) Dists(s int, faults []int) ([]int32, error) {
	canon, srcIdx, err := o.prepare(s, faults)
	if err != nil {
		return nil, err
	}
	v := o.run(s, srcIdx, canon)
	if v.Full != nil {
		return v.Full, nil
	}
	o.dists = v.AppendTo(o.dists[:0])
	return o.dists, nil
}

// DistsView returns the distance table for one failure event in its
// stored representation — a full table, or a delta against the source's
// pinned base — without materializing. The view references immutable
// memory, so callers may retain it across queries (and across eviction);
// they must not mutate its slices.
func (o *Oracle) DistsView(s int, faults []int) (DistView, error) {
	canon, srcIdx, err := o.prepare(s, faults)
	if err != nil {
		return DistView{}, err
	}
	return o.run(s, srcIdx, canon), nil
}

// Route returns an optimal s→v path inside H \ F (nil when disconnected),
// walked back from v over the event's memoized distance table — H \ F holds
// a BFS tree of G \ F (Theorem 1.1), so a vertex at d > 0 has a neighbour at
// d−1. Each hop takes the first non-faulted arc to d−1 in the vertex's span;
// spans are in edge-ID order, so ties go to the lowest edge ID whatever the
// vertex numbering. Vertex IDs on the path are G's.
func (o *Oracle) Route(s, v int, faults []int) (path.Path, error) {
	canon, srcIdx, err := o.prepare(s, faults)
	if err != nil {
		return nil, err
	}
	if v < 0 || v >= o.set.st.G.N() {
		return nil, queryErr(ErrBadTarget, "oracle: target %d out of range", v)
	}
	t := o.run(s, srcIdx, canon)
	d := t.At(v)
	if d == bfs.Unreachable {
		return nil, nil
	}
	cut := o.translate(canon)
	off, arcs := o.set.sub.ArcData()
	p := make(path.Path, d+1)
	p[d] = v
	for ; d > 0; d-- {
		for _, a := range arcs[off[p[d]]:off[p[d]+1]] {
			if t.At(int(a.To)) == d-1 && !slices.Contains(cut, int(a.ID)) {
				p[d-1] = int(a.To)
				break
			}
		}
	}
	return p, nil
}
