// Package batchcodec implements the binary batch query protocol of the
// serving plane: a length-prefixed, CRC-guarded framing with fixed-width
// request items and response records, negotiated on the batch query
// endpoint by Content-Type (see DESIGN.md "Query plane"). Its fixed-width
// items and records decode and encode with zero allocations per item and
// no text to parse or print, which is what pushes the batch path past 1M
// queries/s.
//
// Request frame (all integers little-endian):
//
//	offset 0   magic    "FTBQ" (4 bytes)
//	offset 4   version  uint32 (currently 1)
//	offset 8   count    uint32
//	offset 12  reserved uint32 (must be 0)
//	offset 16  count × 20-byte items:
//	           source int32, target int32, fault0 uint32, fault1 uint32,
//	           flags uint32 (low 8 bits: fault count 0..2; FlagRoute,
//	           FlagAllDists; all other bits must be 0)
//	last 4     crc32 uint32 (Castagnoli, over the item bytes)
//
// Response frame:
//
//	offset 0   magic      "FTBR" (4 bytes)
//	offset 4   version    uint32 (currently 1)
//	offset 8   count      uint32
//	offset 12  valueWords uint32 (uint32 count of the value area)
//	offset 16  count × 12-byte records:
//	           dist int32, flags uint32 (RecReachable, RecError,
//	           RecHasPath, RecHasDists), aux uint32 (error code, path
//	           length, or table length)
//	then       value area: valueWords × uint32 (path vertex IDs and
//	           distance tables, consumed in record order)
//	last 4     crc32 uint32 (Castagnoli, over records + value area)
//
// Both decoders demand the exact frame length implied by the header and
// allocate nothing proportional to the declared counts (they return views
// into the input buffer), so truncation, length bombs, and flipped bits
// all fail with a position-carrying *FrameError — the same contract as
// internal/snap, from which the CRC-32C/section idiom is borrowed.
package batchcodec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// ContentType negotiates the binary protocol on the batch query endpoint.
const ContentType = "application/x-ftbfs-batch"

// ProtoVersion is the wire version of both frame types.
const ProtoVersion = 1

// Frame magics.
const (
	reqMagic  = "FTBQ"
	respMagic = "FTBR"
)

// Fixed widths.
const (
	headerBytes  = 16
	reqItemBytes = 20
	respRecBytes = 12
	crcBytes     = 4
)

// Request item flags. The low 8 bits of Item.Flags hold the fault count.
const (
	FlagRoute    = 1 << 8 // return a realizing path (needs a target)
	FlagAllDists = 1 << 9 // return the whole distance table (target ignored)

	flagFaultMask  = 0xff
	reqKnownFlags  = FlagRoute | FlagAllDists | flagFaultMask
	maxItemFaults  = 2
	respKnownFlags = RecReachable | RecError | RecHasPath | RecHasDists
)

// Response record flags.
const (
	RecReachable = 1 << 0 // target reachable (dist is valid)
	RecError     = 1 << 1 // item failed; aux is an ErrCode
	RecHasPath   = 1 << 2 // aux path vertices follow in the value area
	RecHasDists  = 1 << 3 // aux table entries follow in the value area
)

// ErrCode is the aux value of an error record. Binary responses carry
// codes, not strings; the JSON protocol remains the debugging surface.
type ErrCode uint32

const (
	ErrNone        ErrCode = iota
	ErrBadItem             // malformed item (unknown flags, bad fault count)
	ErrBadSource           // source is not one of the structure's sources
	ErrBadTarget           // target out of vertex range
	ErrBadFault            // fault edge ID out of edge range
	ErrFaultBudget         // more distinct faults than the structure supports
	ErrInternal            // oracle failed after validation
)

func (c ErrCode) String() string {
	switch c {
	case ErrNone:
		return "ok"
	case ErrBadItem:
		return "malformed item"
	case ErrBadSource:
		return "unknown source"
	case ErrBadTarget:
		return "target out of range"
	case ErrBadFault:
		return "fault edge out of range"
	case ErrFaultBudget:
		return "fault budget exceeded"
	case ErrInternal:
		return "internal error"
	default:
		return fmt.Sprintf("error code %d", uint32(c))
	}
}

// FrameError describes a malformed or corrupted frame. Offset is the byte
// position in the frame at which decoding failed.
type FrameError struct {
	Offset int64
	Msg    string
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("batchcodec: offset %d: %s", e.Offset, e.Msg)
}

func frameErrf(offset int64, format string, args ...any) error {
	return &FrameError{Offset: offset, Msg: fmt.Sprintf(format, args...)}
}

// castagnoli matches internal/snap's section checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Item is one decoded request item. Target is ignored when FlagAllDists is
// set; Fault1 is ignored when the fault count is below 2.
type Item struct {
	Source int32
	Target int32
	Fault0 uint32
	Fault1 uint32
	Flags  uint32
}

// NumFaults returns the item's fault count (0..2 in a valid item).
func (it Item) NumFaults() int { return int(it.Flags & flagFaultMask) }

// Route reports whether the item asks for a realizing path.
func (it Item) Route() bool { return it.Flags&FlagRoute != 0 }

// AllDists reports whether the item asks for the whole distance table.
func (it Item) AllDists() bool { return it.Flags&FlagAllDists != 0 }

// Valid reports whether the item's flag word is well-formed. Decoding does
// not reject invalid items — the server answers them with ErrBadItem so one
// bad item cannot fail a whole batch.
func (it Item) Valid() bool {
	return it.Flags&^uint32(reqKnownFlags) == 0 &&
		it.NumFaults() <= maxItemFaults &&
		!(it.Route() && it.AllDists())
}

// Request is a zero-copy view of a decoded request frame: items alias the
// input buffer, which must stay alive and unmodified while in use.
type Request struct {
	items []byte
}

// Len returns the item count.
func (r Request) Len() int { return len(r.items) / reqItemBytes }

// Item decodes item i. It is the per-item read of the server's binary
// batch loop.
//
//ftbfs:hotpath
func (r Request) Item(i int) Item {
	b := r.items[i*reqItemBytes : i*reqItemBytes+reqItemBytes]
	return Item{
		Source: int32(binary.LittleEndian.Uint32(b[0:])),
		Target: int32(binary.LittleEndian.Uint32(b[4:])),
		Fault0: binary.LittleEndian.Uint32(b[8:]),
		Fault1: binary.LittleEndian.Uint32(b[12:]),
		Flags:  binary.LittleEndian.Uint32(b[16:]),
	}
}

// checkFrame validates the frame's exact length and trailing CRC and
// returns the payload between header and CRC. elemBytes is the fixed
// per-element width; extraBytes any additional payload the header declares
// (the response value area).
func checkFrame(buf []byte, elemBytes int, count, extraBytes int64) ([]byte, error) {
	want := headerBytes + count*int64(elemBytes) + extraBytes + crcBytes
	if int64(len(buf)) != want {
		return nil, frameErrf(int64(len(buf)), "frame is %d bytes, header implies %d", len(buf), want)
	}
	payload := buf[headerBytes : len(buf)-crcBytes]
	stored := binary.LittleEndian.Uint32(buf[len(buf)-crcBytes:])
	if got := crc32.Checksum(payload, castagnoli); got != stored {
		return nil, frameErrf(int64(len(buf)-crcBytes), "checksum mismatch: computed %08x, stored %08x", got, stored)
	}
	return payload, nil
}

// decodeHeader validates the 16-byte header and returns count and the
// fourth header word.
func decodeHeader(buf []byte, magic string) (count uint32, word3 uint32, err error) {
	if len(buf) < headerBytes+crcBytes {
		return 0, 0, frameErrf(int64(len(buf)), "frame truncated at %d bytes", len(buf))
	}
	if string(buf[:4]) != magic {
		return 0, 0, frameErrf(0, "bad magic %q, want %q", buf[:4], magic)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != ProtoVersion {
		return 0, 0, frameErrf(4, "unsupported protocol version %d (supported: %d)", v, ProtoVersion)
	}
	return binary.LittleEndian.Uint32(buf[8:]), binary.LittleEndian.Uint32(buf[12:]), nil
}

// DecodeRequest validates a request frame and returns a zero-copy view of
// its items. Nothing is allocated regardless of the declared count, so a
// length bomb costs only the length comparison that rejects it.
func DecodeRequest(buf []byte) (Request, error) {
	count, reserved, err := decodeHeader(buf, reqMagic)
	if err != nil {
		return Request{}, err
	}
	if reserved != 0 {
		return Request{}, frameErrf(12, "reserved header word is %d, want 0", reserved)
	}
	if count == 0 {
		return Request{}, frameErrf(8, "empty batch")
	}
	items, err := checkFrame(buf, reqItemBytes, int64(count), 0)
	if err != nil {
		return Request{}, err
	}
	return Request{items: items}, nil
}

// RequestBuilder assembles a request frame. The zero value is ready; Reset
// reuses the buffer across frames.
type RequestBuilder struct {
	items []byte
	count uint32
}

// Reset clears the builder, keeping capacity.
func (b *RequestBuilder) Reset() {
	b.items = b.items[:0]
	b.count = 0
}

// Len returns the number of items added.
func (b *RequestBuilder) Len() int { return int(b.count) }

// Add appends one item. It is the per-item write of the bench client.
//
//ftbfs:hotpath
func (b *RequestBuilder) Add(it Item) {
	b.items = binary.LittleEndian.AppendUint32(b.items, uint32(it.Source))
	b.items = binary.LittleEndian.AppendUint32(b.items, uint32(it.Target))
	b.items = binary.LittleEndian.AppendUint32(b.items, it.Fault0)
	b.items = binary.LittleEndian.AppendUint32(b.items, it.Fault1)
	b.items = binary.LittleEndian.AppendUint32(b.items, it.Flags)
	b.count++
}

// AddQuery appends a point-to-point distance query (route=false) or route
// query (route=true) with up to two fault edge IDs.
func (b *RequestBuilder) AddQuery(source, target int, faults []int, route bool) error {
	if len(faults) > maxItemFaults {
		return fmt.Errorf("batchcodec: %d faults per item exceeds %d", len(faults), maxItemFaults)
	}
	it := Item{Source: int32(source), Target: int32(target), Flags: uint32(len(faults))}
	if route {
		it.Flags |= FlagRoute
	}
	if len(faults) > 0 {
		it.Fault0 = uint32(faults[0])
	}
	if len(faults) > 1 {
		it.Fault1 = uint32(faults[1])
	}
	b.Add(it)
	return nil
}

// Frame returns the encoded request. The slice is owned by the builder and
// valid until the next Reset/Add.
func (b *RequestBuilder) Frame() []byte {
	return assembleFrame(reqMagic, b.count, 0, b.items, nil)
}

// assembleFrame stitches header + payload(s) + CRC into one buffer.
func assembleFrame(magic string, count, word3 uint32, payload, extra []byte) []byte {
	out := make([]byte, 0, headerBytes+len(payload)+len(extra)+crcBytes)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, ProtoVersion)
	out = binary.LittleEndian.AppendUint32(out, count)
	out = binary.LittleEndian.AppendUint32(out, word3)
	out = append(out, payload...)
	out = append(out, extra...)
	crc := crc32.Checksum(out[headerBytes:], castagnoli)
	return binary.LittleEndian.AppendUint32(out, crc)
}

// Record is one decoded response record.
type Record struct {
	Dist  int32
	Flags uint32
	Aux   uint32
}

// Reachable reports whether the record's target was reachable.
func (rec Record) Reachable() bool { return rec.Flags&RecReachable != 0 }

// Err returns the record's error code (ErrNone when the item succeeded).
func (rec Record) Err() ErrCode {
	if rec.Flags&RecError == 0 {
		return ErrNone
	}
	return ErrCode(rec.Aux)
}

// Response is a zero-copy view of a decoded response frame.
type Response struct {
	records []byte
	values  []byte // valueWords × uint32, consumed in record order
}

// Len returns the record count.
func (r Response) Len() int { return len(r.records) / respRecBytes }

// Record decodes record i. Value payloads (paths, tables) are reached
// through Iter, which tracks the value cursor.
//
//ftbfs:hotpath
func (r Response) Record(i int) Record {
	b := r.records[i*respRecBytes : i*respRecBytes+respRecBytes]
	return Record{
		Dist:  int32(binary.LittleEndian.Uint32(b[0:])),
		Flags: binary.LittleEndian.Uint32(b[4:]),
		Aux:   binary.LittleEndian.Uint32(b[8:]),
	}
}

// DecodeResponse validates a response frame and returns a zero-copy view.
// Validation walks every record once, checking flag well-formedness and
// that the value area is consumed exactly; like DecodeRequest it allocates
// nothing proportional to the declared sizes.
func DecodeResponse(buf []byte) (Response, error) {
	count, valueWords, err := decodeHeader(buf, respMagic)
	if err != nil {
		return Response{}, err
	}
	payload, err := checkFrame(buf, respRecBytes, int64(count), 4*int64(valueWords))
	if err != nil {
		return Response{}, err
	}
	r := Response{
		records: payload[:int(count)*respRecBytes],
		values:  payload[int(count)*respRecBytes:],
	}
	used := int64(0)
	for i := 0; i < int(count); i++ {
		rec := r.Record(i)
		recOff := int64(headerBytes + i*respRecBytes)
		if rec.Flags&^uint32(respKnownFlags) != 0 {
			return Response{}, frameErrf(recOff+4, "record %d has unknown flags %#x", i, rec.Flags)
		}
		if rec.Flags&RecError != 0 && rec.Flags != RecError {
			return Response{}, frameErrf(recOff+4, "record %d mixes error with result flags %#x", i, rec.Flags)
		}
		if rec.Flags&RecHasPath != 0 && rec.Flags&RecHasDists != 0 {
			return Response{}, frameErrf(recOff+4, "record %d carries both path and table", i)
		}
		if rec.Flags&(RecHasPath|RecHasDists) != 0 {
			used += int64(rec.Aux)
			if used > int64(valueWords) {
				return Response{}, frameErrf(recOff+8, "record %d overruns value area (%d of %d words)", i, used, valueWords)
			}
		}
	}
	if used != int64(valueWords) {
		return Response{}, frameErrf(12, "value area has %d words, records consume %d", valueWords, used)
	}
	return r, nil
}

// Iter walks a response's records in order, tracking the value cursor so
// path and table payloads can be read without an index allocation.
type Iter struct {
	r   Response
	i   int
	off int // byte offset of the CURRENT record's value block
	n   int // byte length of the current record's value block
}

// Iter returns an iterator positioned before the first record.
func (r Response) Iter() Iter { return Iter{r: r, i: -1} }

// Next advances to the next record, returning false past the end.
//
//ftbfs:hotpath
func (it *Iter) Next() bool {
	if it.i >= 0 {
		it.off += it.n
	}
	it.i++
	if it.i >= it.r.Len() {
		return false
	}
	rec := it.r.Record(it.i)
	it.n = 0
	if rec.Flags&(RecHasPath|RecHasDists) != 0 {
		it.n = 4 * int(rec.Aux)
	}
	return true
}

// Record returns the current record.
func (it *Iter) Record() Record { return it.r.Record(it.i) }

// ValueLen returns the uint32 count of the current record's value block.
func (it *Iter) ValueLen() int { return it.n / 4 }

// Value returns the j-th uint32 of the current record's value block (a
// path vertex ID or a distance-table entry; table entries are int32 cast
// to uint32).
//
//ftbfs:hotpath
func (it *Iter) Value(j int) uint32 {
	return binary.LittleEndian.Uint32(it.r.values[it.off+4*j:])
}

// ResponseWriter assembles a response frame: fixed records and the value
// area grow in separate buffers and Frame stitches them. The zero value is
// ready; Reset reuses both buffers across responses.
type ResponseWriter struct {
	records []byte
	values  []byte
	count   uint32
	vwords  uint32
}

// Reset clears the writer, keeping capacity.
func (w *ResponseWriter) Reset() {
	w.records = w.records[:0]
	w.values = w.values[:0]
	w.count = 0
	w.vwords = 0
}

// Len returns the number of records written.
func (w *ResponseWriter) Len() int { return int(w.count) }

// record appends one fixed-width record.
//
//ftbfs:hotpath
func (w *ResponseWriter) record(dist int32, flags, aux uint32) {
	w.records = binary.LittleEndian.AppendUint32(w.records, uint32(dist))
	w.records = binary.LittleEndian.AppendUint32(w.records, flags)
	w.records = binary.LittleEndian.AppendUint32(w.records, aux)
	w.count++
}

// Dist appends a point-to-point distance record.
//
//ftbfs:hotpath
func (w *ResponseWriter) Dist(d int32, reachable bool) {
	var flags uint32
	if reachable {
		flags = RecReachable
	}
	w.record(d, flags, 0)
}

// Error appends an error record.
func (w *ResponseWriter) Error(code ErrCode) {
	w.record(-1, RecError, uint32(code))
}

// Path appends a route record: hop distance, then the path vertices into
// the value area. An empty path (nil) must instead be reported with
// Dist(-1, false); Path is for realized routes only.
//
//ftbfs:hotpath
func (w *ResponseWriter) Path(vertices []int) {
	w.record(int32(len(vertices)-1), RecReachable|RecHasPath, uint32(len(vertices)))
	for _, v := range vertices {
		w.values = binary.LittleEndian.AppendUint32(w.values, uint32(v))
	}
	w.vwords += uint32(len(vertices))
}

// Dists appends a whole-table record into the value area. Unreachable
// entries keep their -1 encoding.
//
//ftbfs:hotpath
func (w *ResponseWriter) Dists(table []int32) {
	w.record(-1, RecHasDists, uint32(len(table)))
	for _, d := range table {
		w.values = binary.LittleEndian.AppendUint32(w.values, uint32(d))
	}
	w.vwords += uint32(len(table))
}

// DistsPatched appends a whole-table record assembled from a
// delta-encoded table — the fault-free base with vals patched in at the
// (sorted) keys' positions — without materializing the table first: the
// base streams into the value area and the patch rewrites the touched
// positions in place. Byte-identical to Dists of the materialized table.
//
//ftbfs:hotpath
func (w *ResponseWriter) DistsPatched(base, keys, vals []int32) {
	w.record(-1, RecHasDists, uint32(len(base)))
	off := len(w.values)
	for _, d := range base {
		w.values = binary.LittleEndian.AppendUint32(w.values, uint32(d))
	}
	for i, k := range keys {
		binary.LittleEndian.PutUint32(w.values[off+4*int(k):], uint32(vals[i]))
	}
	w.vwords += uint32(len(base))
}

// Frame returns the encoded response. The slice is freshly allocated per
// call (one allocation per batch, not per item).
func (w *ResponseWriter) Frame() []byte {
	return assembleFrame(respMagic, w.count, w.vwords, w.records, w.values)
}
