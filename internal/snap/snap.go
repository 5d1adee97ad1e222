// Package snap is the persistence layer: a versioned, length-prefixed
// binary snapshot format for built FT-BFS artifacts — the frozen CSR
// graph, the structure's edge set, its provenance (sources, fault model,
// BuildStats) and a free-form JSON metadata record — so a structure that
// took minutes of builder time can be reloaded in milliseconds.
//
// File layout (all integers little-endian):
//
//	offset 0   magic   "FTBFSNAP" (8 bytes)
//	offset 8   version uint32 (1 or 2)
//	offset 12  section count uint32
//	offset 16  section table: count × { id [4]byte, payloadLen uint64 }
//	then, per section in table order:
//	           payload (payloadLen bytes), crc32 uint32 (Castagnoli,
//	           over the payload bytes)
//
// Version 1 has exactly three sections, in this order:
//
//	META  JSON metadata (Meta): graph/build names, builder mode, seed,
//	      build timing. Free-form and forward-tolerant (unknown JSON
//	      fields are ignored).
//	GRPH  the frozen CSR graph, near-verbatim: n, m, the edge table,
//	      the offset table, the insertion-ordered arc array and its
//	      span-sorted copy. Decoding is one read plus the O(n+m)
//	      structural validation of graph.FromCSRData — no rebuild.
//	STRC  the structure: fault budget, fault model, sources, BuildStats,
//	      and the kept-edge bitset words verbatim.
//
// Version 2, written by earlier releases for graphs frozen under a BFS
// vertex renumbering, appends exactly one more section:
//
//	VPRM  vertex count, then the internal->registered label map. GRPH
//	      and STRC hold internal labels; edge IDs are the registered
//	      ones. The decoder checks the map is a permutation, re-freezes
//	      the edge table in edge-ID order with endpoints mapped back,
//	      and maps the sources back, so a version-2 file decodes to the
//	      snapshot of the same build over the registered numbering.
//
// The encoder writes version 1 only.
//
// Compatibility policy: the decoder rejects unknown magic, versions, and
// section IDs outright (a snapshot is an artifact, not a negotiation).
// Any layout change bumps the version; decode paths for old versions are
// kept so existing snapshot files remain loadable. Integrity is per
// section: a flipped bit fails that section's CRC with the file offset in
// the error, and truncation anywhere yields a *FormatError rather than a
// partial snapshot.
package snap

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/graph"
)

// Magic identifies a snapshot file (the first 8 bytes).
const Magic = "FTBFSNAP"

// Version is the highest format version Decode reads. Encode writes
// version 1.
const Version = 2

// maxSectionBytes bounds a single section's declared payload length, so a
// corrupted or hostile length field cannot claim more than the format
// could ever need. 1 GiB supports graphs of ~25M edges. META is a small
// JSON record and gets a much tighter bound of its own.
const (
	maxSectionBytes = 1 << 30
	maxMetaBytes    = 1 << 20
)

// Section IDs in file order; idVPerm exists only in version 2.
var (
	idMeta   = [4]byte{'M', 'E', 'T', 'A'}
	idGraph  = [4]byte{'G', 'R', 'P', 'H'}
	idStruct = [4]byte{'S', 'T', 'R', 'C'}
	idVPerm  = [4]byte{'V', 'P', 'R', 'M'}
)

// castagnoli is the CRC-32C table used for every section checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta is the snapshot's free-form metadata record (the META section,
// stored as JSON). Every field is optional; the codec round-trips it
// without interpreting it. The server uses it to restore build-registry
// entries on warm start.
type Meta struct {
	// Graph and Build name the registry entry the snapshot came from.
	Graph string `json:"graph,omitempty"`
	Build string `json:"build,omitempty"`
	// Mode is the builder that produced the structure (dual, single,
	// multi, …); empty for snapshots packed from raw edge lists.
	Mode string `json:"mode,omitempty"`
	// Seed is the tie-breaking seed the structure was built with.
	Seed int64 `json:"seed,omitempty"`
	// ElapsedMS is the original build time in milliseconds — what a warm
	// start saves.
	ElapsedMS float64 `json:"elapsedMs,omitempty"`
	// CreatedUnixMS is the snapshot creation time (Unix milliseconds).
	CreatedUnixMS int64 `json:"createdUnixMs,omitempty"`
}

// Snapshot pairs a decoded structure (including its graph) with the
// snapshot metadata.
type Snapshot struct {
	Structure *core.Structure
	Meta      Meta
}

// FormatError describes a malformed or corrupted snapshot. Offset is the
// absolute byte position in the input at which decoding failed; Err, when
// non-nil, is the underlying read error (so callers can errors.As through
// to transport errors like http.MaxBytesError).
type FormatError struct {
	Offset int64
	Msg    string
	Err    error
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("snap: offset %d: %s", e.Offset, e.Msg)
}

// Unwrap exposes the underlying read error, if any.
func (e *FormatError) Unwrap() error { return e.Err }

func formatErrf(offset int64, format string, args ...any) error {
	return &FormatError{Offset: offset, Msg: fmt.Sprintf(format, args...)}
}

// formatReadErr is formatErrf for failed reads, retaining the underlying
// error for unwrapping.
func formatReadErr(offset int64, err error, format string, args ...any) error {
	return &FormatError{Offset: offset, Msg: fmt.Sprintf(format, args...) + ": " + err.Error(), Err: err}
}

// ---- encoding ----

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// encodeGraph serializes the frozen CSR representation near-verbatim:
// the decode side hands the arrays straight to graph.FromCSRData.
func encodeGraph(g *graph.Graph) []byte {
	edges, arcOff, arcs, sorted := g.CSRData()
	b := make([]byte, 0, 8+8*len(edges)+4*len(arcOff)+8*len(arcs)+8*len(sorted))
	b = appendU32(b, uint32(g.N()))
	b = appendU32(b, uint32(len(edges)))
	for _, e := range edges {
		b = appendU32(b, uint32(e.U))
		b = appendU32(b, uint32(e.V))
	}
	for _, o := range arcOff {
		b = appendU32(b, uint32(o))
	}
	for _, a := range arcs {
		b = appendU32(b, uint32(a.To))
		b = appendU32(b, uint32(a.ID))
	}
	for _, a := range sorted {
		b = appendU32(b, uint32(a.To))
		b = appendU32(b, uint32(a.ID))
	}
	return b
}

// encodeStructure serializes everything of a Structure except the graph
// (GRPH section) and Targets (a debugging artifact, deliberately not
// persisted).
func encodeStructure(st *core.Structure) []byte {
	words := st.Edges.Words()
	b := make([]byte, 0, 24+4*len(st.Sources)+7*8+8*len(words))
	b = appendU32(b, uint32(st.Faults))
	if st.VertexFaults {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendU32(b, uint32(len(st.Sources)))
	for _, s := range st.Sources {
		b = appendU32(b, uint32(s))
	}
	stats := [7]int{
		st.Stats.Dijkstras, st.Stats.Fallbacks, st.Stats.TieWarnings,
		st.Stats.MaxNewEdges, st.Stats.MaxE1, st.Stats.MaxE2,
		st.Stats.NewEndingPiD,
	}
	for _, v := range stats {
		b = appendU64(b, uint64(int64(v)))
	}
	b = appendU32(b, uint32(st.Edges.Len())) // redundant; validated on decode
	for _, w := range words {
		b = appendU64(b, w)
	}
	return b
}

// Encode writes st and meta as a version-1 snapshot. The encoding is
// deterministic: identical snapshots produce identical bytes.
func Encode(w io.Writer, s *Snapshot) error {
	if s == nil || s.Structure == nil || s.Structure.G == nil || s.Structure.Edges == nil {
		return fmt.Errorf("snap: snapshot has no structure")
	}
	meta, err := json.Marshal(s.Meta)
	if err != nil {
		return fmt.Errorf("snap: meta: %w", err)
	}
	sections := []struct {
		id      [4]byte
		payload []byte
	}{
		{idMeta, meta},
		{idGraph, encodeGraph(s.Structure.G)},
		{idStruct, encodeStructure(s.Structure)},
	}
	head := make([]byte, 0, 16+12*len(sections))
	head = append(head, Magic...)
	head = appendU32(head, 1)
	head = appendU32(head, uint32(len(sections)))
	for _, sec := range sections {
		head = append(head, sec.id[:]...)
		head = appendU64(head, uint64(len(sec.payload)))
	}
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("snap: write header: %w", err)
	}
	var crcBuf [4]byte
	for _, sec := range sections {
		if _, err := w.Write(sec.payload); err != nil {
			return fmt.Errorf("snap: write %s section: %w", sec.id[:], err)
		}
		binary.LittleEndian.PutUint32(crcBuf[:], crc32.Checksum(sec.payload, castagnoli))
		if _, err := w.Write(crcBuf[:]); err != nil {
			return fmt.Errorf("snap: write %s checksum: %w", sec.id[:], err)
		}
	}
	return nil
}

// ---- decoding ----

// sectionReader parses one section payload with absolute-offset errors.
type sectionReader struct {
	buf  []byte
	pos  int
	base int64 // absolute file offset of buf[0]
}

func (r *sectionReader) errf(format string, args ...any) error {
	return formatErrf(r.base+int64(r.pos), format, args...)
}

func (r *sectionReader) u32() (uint32, error) {
	if r.pos+4 > len(r.buf) {
		return 0, r.errf("section truncated reading uint32")
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *sectionReader) u64() (uint64, error) {
	if r.pos+8 > len(r.buf) {
		return 0, r.errf("section truncated reading uint64")
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *sectionReader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, r.errf("section truncated reading byte")
	}
	v := r.buf[r.pos]
	r.pos++
	return v, nil
}

// remaining returns the unread byte count.
func (r *sectionReader) remaining() int { return len(r.buf) - r.pos }

// count validates a decoded element count against the bytes actually
// available for it, so corrupt counts fail cleanly before any allocation
// larger than the input itself.
func (r *sectionReader) count(v uint32, elemBytes int, what string) (int, error) {
	n := int(v)
	if n < 0 || n > (1<<31-1)/max(elemBytes, 1) {
		return 0, r.errf("%s count %d out of range", what, v)
	}
	if n*elemBytes > r.remaining() {
		return 0, r.errf("%s count %d needs %d bytes, %d remain", what, v, n*elemBytes, r.remaining())
	}
	return n, nil
}

func decodeGraph(r *sectionReader) (*graph.Graph, error) {
	nRaw, err := r.u32()
	if err != nil {
		return nil, err
	}
	mRaw, err := r.u32()
	if err != nil {
		return nil, err
	}
	// A graph needs 8m (edges) + 4(n+1) (offsets) + 16m+16m (arcs and
	// sorted, 2m entries of 8 bytes each); validate both counts against
	// the payload before allocating.
	n, err := r.count(nRaw, 4, "vertex")
	if err != nil {
		return nil, err
	}
	m, err := r.count(mRaw, 8, "edge")
	if err != nil {
		return nil, err
	}
	want := 8*m + 4*(n+1) + 32*m
	if r.remaining() != want {
		return nil, r.errf("graph payload has %d bytes, want %d for n=%d m=%d", r.remaining(), want, n, m)
	}
	edges := make([]graph.Edge, m)
	for i := range edges {
		u, _ := r.u32()
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		edges[i] = graph.Edge{U: int(int32(u)), V: int(int32(v))}
	}
	arcOff := make([]int32, n+1)
	for i := range arcOff {
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		arcOff[i] = int32(v)
	}
	readArcs := func() ([]graph.Arc, error) {
		arcs := make([]graph.Arc, 2*m)
		for i := range arcs {
			to, _ := r.u32()
			id, err := r.u32()
			if err != nil {
				return nil, err
			}
			arcs[i] = graph.Arc{To: int32(to), ID: int32(id)}
		}
		return arcs, nil
	}
	arcs, err := readArcs()
	if err != nil {
		return nil, err
	}
	sorted, err := readArcs()
	if err != nil {
		return nil, err
	}
	g, err := graph.FromCSRData(n, edges, arcOff, arcs, sorted)
	if err != nil {
		return nil, formatErrf(r.base, "invalid CSR data: %v", err)
	}
	return g, nil
}

func decodeStructure(r *sectionReader, g *graph.Graph) (*core.Structure, error) {
	faults, err := r.u32()
	if err != nil {
		return nil, err
	}
	if faults > 1<<20 {
		return nil, r.errf("fault budget %d out of range", faults)
	}
	vf, err := r.byte()
	if err != nil {
		return nil, err
	}
	if vf > 1 {
		return nil, r.errf("vertex-fault flag is %d, want 0 or 1", vf)
	}
	nsRaw, err := r.u32()
	if err != nil {
		return nil, err
	}
	ns, err := r.count(nsRaw, 4, "source")
	if err != nil {
		return nil, err
	}
	sources := make([]int, ns)
	for i := range sources {
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		if int(v) >= g.N() {
			return nil, r.errf("source %d out of range [0,%d)", v, g.N())
		}
		sources[i] = int(v)
	}
	var stats [7]int
	for i := range stats {
		v, err := r.u64()
		if err != nil {
			return nil, err
		}
		stats[i] = int(int64(v))
	}
	kept, err := r.u32()
	if err != nil {
		return nil, err
	}
	nwords := (g.M() + 63) / 64
	if r.remaining() != 8*nwords {
		return nil, r.errf("edge set has %d bytes, want %d for %d graph edges", r.remaining(), 8*nwords, g.M())
	}
	words := make([]uint64, nwords)
	for i := range words {
		words[i], _ = r.u64()
	}
	set, err := graph.NewEdgeSetFromWords(g.M(), words)
	if err != nil {
		return nil, formatErrf(r.base, "invalid edge set: %v", err)
	}
	if set.Len() != int(kept) {
		return nil, r.errf("edge set holds %d edges, header says %d", set.Len(), kept)
	}
	return &core.Structure{
		G:            g,
		Sources:      sources,
		Faults:       int(faults),
		VertexFaults: vf == 1,
		Edges:        set,
		Stats: core.BuildStats{
			Dijkstras: stats[0], Fallbacks: stats[1], TieWarnings: stats[2],
			MaxNewEdges: stats[3], MaxE1: stats[4], MaxE2: stats[5],
			NewEndingPiD: stats[6],
		},
	}, nil
}

// registerOrder parses a version-2 VPRM section and moves st onto the
// registered numbering: toOld must be a permutation of [0, n); the edge
// table is re-frozen in edge-ID order with endpoints mapped through it, so
// edge IDs, and with them the kept-edge set, carry over unchanged.
func registerOrder(r *sectionReader, st *core.Structure) error {
	n := st.G.N()
	nRaw, err := r.u32()
	if err != nil {
		return err
	}
	if int(nRaw) != n {
		return r.errf("order map has %d entries, graph has %d vertices", nRaw, n)
	}
	if r.remaining() != 4*n {
		return r.errf("order payload has %d bytes, want %d", r.remaining(), 4*n)
	}
	toOld := make([]int, n)
	seen := make([]bool, n)
	for i := range toOld {
		v, _ := r.u32()
		if int(v) >= n || seen[v] {
			return r.errf("order map entry %d = %d is out of range or repeated", i, v)
		}
		seen[v] = true
		toOld[i] = int(v)
	}
	b := graph.NewBuilder(n)
	for id := 0; id < st.G.M(); id++ {
		e := st.G.EdgeAt(id)
		if _, err := b.AddEdge(toOld[e.U], toOld[e.V]); err != nil {
			return formatErrf(r.base, "remapping edge %d: %v", id, err)
		}
	}
	st.G = b.Freeze()
	for i, s := range st.Sources {
		st.Sources[i] = toOld[s]
	}
	return nil
}

// Decode reads one snapshot. Every byte of the input is length-checked and
// checksum-verified before interpretation; malformed input yields a
// *FormatError carrying the offending file offset, never a partial
// snapshot or a panic.
func Decode(r io.Reader) (*Snapshot, error) {
	head := make([]byte, 16)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, formatReadErr(0, err, "truncated header")
	}
	if string(head[:8]) != Magic {
		return nil, formatErrf(0, "bad magic %q, want %q", head[:8], Magic)
	}
	version := binary.LittleEndian.Uint32(head[8:])
	var wantIDs [][4]byte
	switch version {
	case 1:
		wantIDs = [][4]byte{idMeta, idGraph, idStruct}
	case 2:
		wantIDs = [][4]byte{idMeta, idGraph, idStruct, idVPerm}
	default:
		return nil, formatErrf(8, "unsupported format version %d (supported: 1..%d)", version, Version)
	}
	nsec := binary.LittleEndian.Uint32(head[12:])
	if int(nsec) != len(wantIDs) {
		return nil, formatErrf(12, "version %d has %d sections, got %d", version, len(wantIDs), nsec)
	}
	table := make([]byte, 12*len(wantIDs))
	if _, err := io.ReadFull(r, table); err != nil {
		return nil, formatReadErr(16, err, "truncated section table")
	}
	lengths := make([]int, len(wantIDs))
	for i, want := range wantIDs {
		entry := table[12*i:]
		tableOff := int64(16 + 12*i)
		if [4]byte(entry[:4]) != want {
			return nil, formatErrf(tableOff, "section %d is %q, want %q", i, entry[:4], want[:])
		}
		l := binary.LittleEndian.Uint64(entry[4:])
		limit := uint64(maxSectionBytes)
		if want == idMeta {
			limit = maxMetaBytes
		}
		if l > limit {
			return nil, formatErrf(tableOff+4, "section %q length %d exceeds limit %d", want[:], l, limit)
		}
		lengths[i] = int(l)
	}
	offset := int64(16 + 12*len(wantIDs))
	payloads := make([][]byte, len(wantIDs))
	bases := make([]int64, len(wantIDs))
	var crcBuf [4]byte
	for i, want := range wantIDs {
		bases[i] = offset
		// Read through a growing buffer rather than pre-allocating the
		// DECLARED length: a hostile 50-byte input claiming a 1 GiB
		// section must not cost a 1 GiB allocation before the read fails.
		var buf bytes.Buffer
		if n, err := io.CopyN(&buf, r, int64(lengths[i])); err != nil {
			return nil, formatReadErr(offset+n, err, "truncated %q section (%d bytes expected, %d present)", want[:], lengths[i], n)
		}
		payloads[i] = buf.Bytes()
		offset += int64(lengths[i])
		if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
			return nil, formatReadErr(offset, err, "truncated %q checksum", want[:])
		}
		if got, stored := crc32.Checksum(payloads[i], castagnoli), binary.LittleEndian.Uint32(crcBuf[:]); got != stored {
			return nil, formatErrf(offset, "%q section checksum mismatch: computed %08x, stored %08x", want[:], got, stored)
		}
		offset += 4
	}
	var meta Meta
	if err := json.Unmarshal(payloads[0], &meta); err != nil {
		return nil, formatErrf(bases[0], "bad META JSON: %v", err)
	}
	g, err := decodeGraph(&sectionReader{buf: payloads[1], base: bases[1]})
	if err != nil {
		return nil, err
	}
	st, err := decodeStructure(&sectionReader{buf: payloads[2], base: bases[2]}, g)
	if err != nil {
		return nil, err
	}
	if version == 2 {
		if err := registerOrder(&sectionReader{buf: payloads[3], base: bases[3]}, st); err != nil {
			return nil, err
		}
	}
	return &Snapshot{Structure: st, Meta: meta}, nil
}

// ---- inspection ----

// SectionInfo describes one section of an encoded snapshot file.
type SectionInfo struct {
	ID     string // 4-byte section identifier
	Bytes  int64  // payload length
	CRC    uint32 // stored CRC-32C
	Intact bool   // stored CRC matches the payload bytes
}

// FileInfo is the layout of an encoded snapshot: what Inspect reports
// without interpreting any payload.
type FileInfo struct {
	Version  uint32
	Sections []SectionInfo
}

// Inspect reads a snapshot's header, section table, and per-section
// checksums without decoding the payloads — the cheap integrity and
// layout view behind `ftbfssnap info`. Unlike Decode it tolerates
// checksum mismatches (reporting them per section), but not structural
// damage to the header or truncation.
func Inspect(r io.Reader) (*FileInfo, error) {
	head := make([]byte, 16)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, formatErrf(0, "truncated header: %v", err)
	}
	if string(head[:8]) != Magic {
		return nil, formatErrf(0, "bad magic %q, want %q", head[:8], Magic)
	}
	info := &FileInfo{Version: binary.LittleEndian.Uint32(head[8:])}
	nsec := binary.LittleEndian.Uint32(head[12:])
	if nsec > 64 {
		return nil, formatErrf(12, "implausible section count %d", nsec)
	}
	table := make([]byte, 12*nsec)
	if _, err := io.ReadFull(r, table); err != nil {
		return nil, formatErrf(16, "truncated section table: %v", err)
	}
	offset := int64(16 + len(table))
	var crcBuf [4]byte
	for i := 0; i < int(nsec); i++ {
		entry := table[12*i:]
		length := binary.LittleEndian.Uint64(entry[4:])
		if length > maxSectionBytes {
			return nil, formatErrf(int64(16+12*i+4), "section length %d exceeds limit %d", length, maxSectionBytes)
		}
		h := crc32.New(castagnoli)
		if _, err := io.CopyN(h, r, int64(length)); err != nil {
			return nil, formatErrf(offset, "truncated section %q: %v", entry[:4], err)
		}
		offset += int64(length)
		if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
			return nil, formatErrf(offset, "truncated checksum of section %q: %v", entry[:4], err)
		}
		offset += 4
		stored := binary.LittleEndian.Uint32(crcBuf[:])
		info.Sections = append(info.Sections, SectionInfo{
			ID:     string(entry[:4]),
			Bytes:  int64(length),
			CRC:    stored,
			Intact: stored == h.Sum32(),
		})
	}
	return info, nil
}

// ---- file helpers ----

// AtomicWriteFile runs write against a temporary file in path's
// directory, fsyncs it, and renames it over path — the crash-safe write
// protocol shared by WriteFile and the server's disk snapshot store: a
// reader can only ever observe the old file or the complete new one.
func AtomicWriteFile(path string, write func(io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "." // keep CreateTemp out of os.TempDir for bare names
	}
	f, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return fmt.Errorf("snap: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("snap: sync %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("snap: close %s: %w", tmp, err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("snap: %w", err)
	}
	return nil
}

// WriteFile encodes the snapshot to path via AtomicWriteFile, so a crash
// mid-write can never leave a half-written snapshot under the final name.
func WriteFile(path string, s *Snapshot) error {
	return AtomicWriteFile(path, func(w io.Writer) error { return Encode(w, s) })
}

// ReadFile decodes the snapshot at path.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	defer f.Close()
	return Decode(f)
}
