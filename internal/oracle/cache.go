package oracle

import (
	"runtime"
	"slices"
	"sync"
)

// The shared memo: a two-tier store of per-failure-event distance tables.
//
// Tier 1 — this file — is an LRU of per-event entries, sharded by key hash
// into independently-locked sub-caches so concurrent clients on different
// failure events never contend on one mutex. Keys are (source,
// canonicalized fault set), hashed to a uint64 with the full key retained
// per entry, so lookups compare against the stored key and a 64-bit hash
// collision degrades to a miss, never to a wrong answer. Entries come in
// two encodings: a FULL table (4 bytes × n) or a DELTA against the
// distance table of the source's pinned fault-free tree — sorted
// changed-vertex IDs plus their new distances (8 bytes × changed
// vertices), chosen when the incremental repairer proves the event touched
// at most n/deltaDenom vertices. A typical fault detaches a tiny subtree,
// so most entries cost a few hundred bytes instead of 4n, and a fixed byte
// budget holds orders of magnitude more events. Each entry is one struct
// plus one backing array that holds the key and the payload together.
//
// Tier 0 — the pinned trees — lives on the OracleSet (see oracle.go),
// outside the LRU: a delta entry is meaningless without its base, and
// every miss repairs against one, so trees are never evicted and are
// accounted separately (PinnedBytes).
//
// Eviction is byte-accounted: each entry is charged its payload plus a
// fixed overhead, and inserts evict least-recently-used entries until the
// byte budget holds. The hot lookup path performs no allocation: the
// caller hashes into scratch buffers, the cache returns a by-value
// DistView, and keys are only copied on insert.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashKey mixes the source and the sorted fault IDs (FNV-1a over their
// little-endian bytes). mixWord must stay a top-level helper that threads
// the state explicitly: a closure capturing h would allocate on every
// lookup, and //ftbfs:hotpath makes ftbfslint's hotalloc analyzer check
// that.
//
//ftbfs:hotpath
func hashKey(src int, canon []int32) uint64 {
	h := uint64(fnvOffset64)
	h = mixWord(h, uint32(src))
	for _, id := range canon {
		h = mixWord(h, uint32(id))
	}
	return h
}

// mixWord folds one little-endian word into an FNV-1a state.
//
//ftbfs:hotpath
func mixWord(h uint64, v uint32) uint64 {
	h = (h ^ uint64(v&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>8&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>16&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>24&0xff)) * fnvPrime64
	return h
}

// deltaDenom sets the delta/full threshold: an event is stored as a delta
// only when the repairer's changed set holds at most n/deltaDenom
// vertices. The byte breakeven is n/2 (8 bytes per changed vertex vs 4
// bytes per vertex of a full table); n/8 stays well under it so a delta
// entry is at least 4× smaller than a full table AND its binary-searched
// point lookup stays short. Events past the threshold (or served by the
// repairer's full-recompute fallback) are stored as full tables, which are
// also the faster representation once most of the table changed.
const deltaDenom = 8

// entryOverheadBytes is the fixed per-entry cost charged on top of the
// key and payload words: the cacheEntry struct, its map slot, the
// intrusive-list links and the backing array's allocator rounding.
// Charging it uniformly keeps the byte budget honest for no-op deltas
// (every fault a non-tree edge: zero changed vertices), which would
// otherwise be free and unbounded in number. It is deliberately not
// re-derived from the struct's current size: a fixed charge keeps the cost
// formula, so a budget holds exactly the same events and hit rates and
// entry counts stay comparable across measurements.
const entryOverheadBytes = 128

// CacheStats is a snapshot of the shared memo's counters, aggregated
// across every shard plus the set's pinned tier-0 trees. It is also the
// wire form of the memo counters: ftbfsd serves it as the "cache" object of
// build info and GET /v1/stats.
type CacheStats struct {
	Len       int   `json:"len"`       // tier-1 entries currently cached
	Shards    int   `json:"shards"`    // independently-locked sub-caches
	Hits      int64 `json:"hits"`      // lookups answered from the memo (either tier)
	Misses    int64 `json:"misses"`    // lookups that ran a repair
	Evictions int64 `json:"evictions"` // tier-1 entries dropped to stay within the budget

	BytesUsed     int64 `json:"bytesUsed"`     // tier-1 bytes currently accounted against the budget
	BytesCapacity int64 `json:"bytesCapacity"` // configured byte budget (0 = memo off)
	DeltaEntries  int   `json:"deltaEntries"`  // tier-1 entries stored as deltas vs a pinned base
	FullEntries   int   `json:"fullEntries"`   // tier-1 entries stored as full tables
	PinnedBytes   int64 `json:"pinnedBytes"`   // tier-0 pinned trees (distances, parents, child CSR), outside the LRU budget
}

// add sums o into s, field by field.
func (s *CacheStats) add(o CacheStats) {
	s.Len += o.Len
	s.Shards += o.Shards
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.BytesUsed += o.BytesUsed
	s.BytesCapacity += o.BytesCapacity
	s.DeltaEntries += o.DeltaEntries
	s.FullEntries += o.FullEntries
	s.PinnedBytes += o.PinnedBytes
}

// TotalCacheStats sums the counters of several sets, Shards included, so
// the total reads as "shards serving queries".
func TotalCacheStats(sets []*OracleSet) CacheStats {
	var out CacheStats
	for _, s := range sets {
		out.add(s.CacheStats())
	}
	return out
}

// DistView is a read-only view of one failure event's distance table.
// Exactly one representation is populated: Full is the complete table
// (full-table entries, pinned bases and uncached computations), or
// Base+Keys+Vals describe a delta — Keys holds the sorted vertex IDs whose
// distance may differ from the fault-free Base, Vals their distances, and
// every other vertex keeps Base's value. All slices are shared immutable
// state; callers must not mutate them.
type DistView struct {
	Full []int32
	Base []int32
	Keys []int32
	Vals []int32
}

// At returns the distance to v: a full-table index, or a binary search of
// the delta falling back to the base.
//
//ftbfs:hotpath
func (t DistView) At(v int) int32 {
	if t.Full != nil {
		return t.Full[v]
	}
	w := int32(v)
	lo, hi := 0, len(t.Keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.Keys[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.Keys) && t.Keys[lo] == w {
		return t.Vals[lo]
	}
	return t.Base[v]
}

// Len returns the table's vertex count.
func (t DistView) Len() int {
	if t.Full != nil {
		return len(t.Full)
	}
	return len(t.Base)
}

// AppendTo materializes the full table into dst (pass dst[:0] to reuse a
// scratch buffer) and returns it: one copy of the base with the delta
// patched in, or one copy of the full table.
func (t DistView) AppendTo(dst []int32) []int32 {
	if t.Full != nil {
		return append(dst, t.Full...)
	}
	off := len(dst)
	dst = append(dst, t.Base...)
	for i, k := range t.Keys {
		dst[off+int(k)] = t.Vals[i]
	}
	return dst
}

type cacheEntry struct {
	hash uint64
	src  int32
	nf   int32 // number of fault IDs at the head of data

	// base is the distance table of the source's pinned tree, which a
	// delta decodes against; nil marks a full table. data is the entry's one backing array, immutable
	// once inserted: the canonical (sorted) fault IDs — the true key —
	// then the payload, either the delta's sorted changed-vertex IDs
	// followed by their distances, or the full table. The tree is pinned,
	// so base can never dangle.
	base []int32
	data []int32

	prev, next *cacheEntry
}

// newEntry returns an entry for the key (src, canon) whose backing array
// has room for size payload words after the key, and that payload slice
// for the caller to fill before inserting. base is the delta's pinned
// table, or nil for a full table.
func newEntry(hash uint64, src int32, canon, base []int32, size int) (*cacheEntry, []int32) {
	data := make([]int32, len(canon)+size)
	copy(data, canon)
	e := &cacheEntry{hash: hash, src: src, nf: int32(len(canon)), base: base, data: data}
	return e, data[len(canon):]
}

// view returns the entry's by-value lookup view (no allocation).
//
//ftbfs:hotpath
func (e *cacheEntry) view() DistView {
	p := e.data[e.nf:]
	if e.base == nil {
		return DistView{Full: p}
	}
	k := len(p) / 2
	return DistView{Base: e.base, Keys: p[:k:k], Vals: p[k:]}
}

// cost is the bytes the entry is charged against the budget: the overhead
// plus 4 per key word and 4 per payload word — 4 per vertex of a full
// table, 8 per changed vertex of a delta (its ID and its distance).
func (e *cacheEntry) cost() int64 {
	return entryOverheadBytes + 4*int64(len(e.data))
}

// lruCache is an intrusively-linked LRU protected by a single mutex,
// bounded by a byte budget. A cache without a budget (maxBytes ≤ 0) is
// valid and caches nothing.
type lruCache struct {
	mu       sync.Mutex
	maxBytes int64 // immutable

	entries map[uint64]*cacheEntry // guarded by mu
	head    cacheEntry             // guarded by mu; sentinel, head.next is most recent

	bytes     int64 // guarded by mu; sum of entry costs
	deltaN    int   // guarded by mu; delta-encoded entries
	fullN     int   // guarded by mu; full-table entries
	hits      int64 // guarded by mu
	misses    int64 // guarded by mu
	evictions int64 // guarded by mu
}

func newLRUCache(maxBytes int64) *lruCache {
	c := &lruCache{maxBytes: maxBytes, entries: make(map[uint64]*cacheEntry)}
	c.head.prev = &c.head
	c.head.next = &c.head
	return c
}

//ftbfs:hotpath
func keyEqual(e *cacheEntry, src int32, canon []int32) bool {
	return e.src == src && slices.Equal(e.data[:e.nf], canon)
}

// moveToFront relinks e as most recent.
//
//ftbfs:holds mu
//ftbfs:hotpath
func (c *lruCache) moveToFront(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	c.pushFront(e)
}

// get returns the cached view for the key, moving its entry to the front.
// It never allocates.
//
//ftbfs:hotpath
func (c *lruCache) get(hash uint64, src int32, canon []int32) (DistView, bool) {
	if c.maxBytes <= 0 {
		return DistView{}, false
	}
	c.mu.Lock()
	e, ok := c.entries[hash]
	if !ok || !keyEqual(e, src, canon) {
		c.misses++
		c.mu.Unlock()
		return DistView{}, false
	}
	c.moveToFront(e)
	c.hits++
	v := e.view()
	c.mu.Unlock()
	return v, true
}

// add inserts a fully-built entry (the caller allocates and copies outside
// the lock), evicting least-recently-used entries until the budget holds,
// and returns the view now cached for the key (e's, or the incumbent of a
// concurrent insert race so all clients share one table).
func (c *lruCache) add(e *cacheEntry) DistView {
	if c.maxBytes <= 0 {
		return e.view()
	}
	cost := e.cost()
	if cost > c.maxBytes {
		// Bigger than the whole budget: it can never fit, so serve it
		// uncached instead of evicting everything for nothing — and
		// before touching the index, so an incumbent sharing its hash
		// stays cached.
		return e.view()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if in, ok := c.entries[e.hash]; ok {
		if keyEqual(in, e.src, e.data[:e.nf]) {
			// Another handle inserted the same event concurrently; keep
			// the incumbent so every client shares one table.
			c.moveToFront(in)
			return in.view()
		}
		// True 64-bit hash collision: the map holds one entry per hash,
		// so the new event replaces the incumbent — an eviction like any
		// other (correctness is preserved either way).
		c.unlink(in)
		c.evictions++
	}
	for c.bytes+cost > c.maxBytes {
		lru := c.head.prev
		if lru == &c.head {
			break
		}
		c.unlink(lru)
		c.evictions++
	}
	c.entries[e.hash] = e
	c.pushFront(e)
	c.bytes += cost
	if e.base == nil {
		c.fullN++
	} else {
		c.deltaN++
	}
	return e.view()
}

// pushFront links e in as most recent.
//
//ftbfs:holds mu
//ftbfs:hotpath
func (c *lruCache) pushFront(e *cacheEntry) {
	e.next = c.head.next
	e.prev = &c.head
	e.next.prev = e
	c.head.next = e
}

// unlink removes e from the list, the index and the byte account.
//
//ftbfs:holds mu
func (c *lruCache) unlink(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	delete(c.entries, e.hash)
	c.bytes -= e.cost()
	if e.base == nil {
		c.fullN--
	} else {
		c.deltaN--
	}
}

func (c *lruCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Len:           len(c.entries),
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		BytesUsed:     c.bytes,
		BytesCapacity: c.maxBytes,
		DeltaEntries:  c.deltaN,
		FullEntries:   c.fullN,
	}
}

// ---- sharding ----

// minShardBytes keeps each shard's slice of the budget useful: it must
// hold at least a few full tables (or hundreds of deltas) before sharding
// pays, so the default shard count is halved until this floor holds.
const minShardBytes = 64 << 10

// shardedCache splits the memo into power-of-two many lruCache shards
// selected by the low bits of the key hash. Shards are independently
// locked, so lookups of distinct failure events proceed without
// contention; within one shard the LRU semantics are unchanged.
type shardedCache struct {
	shards  []*lruCache
	mask    uint64
	enabled bool // immutable: memoization on at all
}

// defaultShardCount rounds GOMAXPROCS up to a power of two, then halves
// until every shard's slice of the budget holds at least minShardBytes
// (one shard for small or disabled caches, preserving strict global LRU
// order).
func defaultShardCount(bytes int64) int {
	if bytes <= 0 {
		return 1
	}
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n *= 2
	}
	for n > 1 && bytes/int64(n) < minShardBytes {
		n /= 2
	}
	return n
}

// newShardedCache builds a memo bounded by a byte budget split
// base+remainder over `shards` sub-caches, a power of two. bytes ≤ 0
// disables caching: one inert shard.
func newShardedCache(bytes int64, shards int) *shardedCache {
	enabled := bytes > 0
	if !enabled {
		bytes, shards = 0, 1
	}
	c := &shardedCache{
		shards:  make([]*lruCache, shards),
		mask:    uint64(shards - 1),
		enabled: enabled,
	}
	base, rem := bytes/int64(shards), bytes%int64(shards)
	for i := range c.shards {
		sb := base
		if int64(i) < rem {
			sb++
		}
		c.shards[i] = newLRUCache(sb)
	}
	return c
}

//ftbfs:hotpath
func (c *shardedCache) shard(hash uint64) *lruCache {
	return c.shards[hash&c.mask]
}

//ftbfs:hotpath
func (c *shardedCache) get(hash uint64, src int32, canon []int32) (DistView, bool) {
	return c.shard(hash).get(hash, src, canon)
}

func (c *shardedCache) add(e *cacheEntry) DistView {
	return c.shard(e.hash).add(e)
}

func (c *shardedCache) stats() CacheStats {
	out := CacheStats{Shards: len(c.shards)}
	for _, sh := range c.shards {
		out.add(sh.stats())
	}
	return out
}
