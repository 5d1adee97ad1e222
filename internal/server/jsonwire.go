package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/bfs"
	"repro/internal/oracle"
	"repro/internal/server/batchcodec"
)

// This file is the JSON half of the query wire: JSON batches, NDJSON
// streams and the answers of the GET endpoints. It has the binary path's
// shape (batchbin.go). A batch body is read whole into a pooled buffer, a
// strict decoder reads the common request shape straight into pooled
// query items, and one append codec writes every answer from its reply.
// Neither side allocates per item.
//
// The common shape is what clients send: the exact lower-case keys of
// batchRequest and batchQuery, each at most once per object, integer
// literals within int range, true and false, and JSON whitespace. Any
// other body goes to encoding/json over the same bytes: case-folded or
// escaped keys, null, 1e2 or 1.0, duplicate keys, unknown fields, bytes
// after the closing brace, malformed JSON. So acceptance, status codes and
// error texts are encoding/json's, whichever decoder ran, and the encoder
// writes exactly the bytes encoding/json writes for batchResult, the
// result struct the tests keep as its reference.

// batchQuery is one item of a batch request. Target absent asks for the
// whole distance table of the failure event; Route additionally returns a
// realizing path (and requires a target). Faults are edge IDs of G.
type batchQuery struct {
	Source int   `json:"source"`
	Target *int  `json:"target,omitempty"`
	Faults []int `json:"faults,omitempty"`
	Route  bool  `json:"route,omitempty"`
}

type batchRequest struct {
	Queries []batchQuery `json:"queries"`
	// Stream switches the response to NDJSON: one result object per
	// line, in request order, flushed incrementally — large batches
	// start arriving before the last item is answered.
	Stream bool `json:"stream,omitempty"`
}

// errRouteNoTarget answers a route item without a target, the one item
// shape JSON can spell but not answer.
var errRouteNoTarget = errors.New("route query needs a target")

// jsonScratch is one request's pooled JSON state: the decoded items, the
// arena their faults are sliced from, and the response bytes. Each grows
// to the largest request it has served; items are kept only up to
// MaxBatchQueries.
type jsonScratch struct {
	queries []query
	faults  []int
	out     []byte
}

var jsonPool = sync.Pool{New: func() any { return new(jsonScratch) }}

// handleBatchQuery answers a JSON batch of (source, target?, faults)
// items with ONE pooled oracle per request, amortizing handle checkout
// and fault parsing across the whole batch — the multi-source workload
// shape (many queries per network round-trip). With "stream": true the
// results are NDJSON-streamed in request order. A request with the
// binary batch Content-Type is dispatched to the binary protocol handler
// instead (same route, negotiated per request).
func (s *Server) handleBatchQuery(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), batchcodec.ContentType) {
		s.handleBatchQueryBinary(w, r)
		return
	}
	set, texts := s.readySet(w, r)
	if set == nil {
		return
	}
	buf := binBodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer binBodyPool.Put(buf)
	_, readErr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	sc := jsonPool.Get().(*jsonScratch)
	defer jsonPool.Put(sc)
	n, stream, err := sc.decode(buf.Bytes(), readErr, s.cfg.MaxBatchQueries)
	if err != nil {
		writeErr(w, bodyErrStatus(err), "bad request body: %v", err)
		return
	}
	s.serveJSONBatch(w, r, set, texts, sc, n, stream)
}

// serveJSONBatch answers a decoded batch of n items, which sc.queries
// holds unless n exceeds MaxBatchQueries, from a ready build's set and
// table texts: as one JSON document, or with stream as NDJSON lines
// closed by a trailer.
func (s *Server) serveJSONBatch(w http.ResponseWriter, r *http.Request, set *oracle.OracleSet,
	texts []tableText, sc *jsonScratch, n int, stream bool) {
	if n == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch")
		return
	}
	if n > s.cfg.MaxBatchQueries {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"batch of %d queries exceeds limit %d", n, s.cfg.MaxBatchQueries)
		return
	}
	o := set.Acquire()
	defer set.Release(o)
	path := pathPool.Get().(*[]int)
	defer pathPool.Put(path)
	ctx := r.Context()
	b := sc.out[:0]
	defer func() { sc.out = b[:0] }()
	if stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		rc := http.NewResponseController(w)
		// The rolling deadline outlives the server's global WriteTimeout
		// on purpose; clear it on exit so it cannot leak into the next
		// request of a keep-alive connection when WriteTimeout is 0.
		armed := time.Now()
		_ = rc.SetWriteDeadline(armed.Add(streamWriteWindow))
		defer func() { _ = rc.SetWriteDeadline(time.Time{}) }()
		w.WriteHeader(http.StatusOK)
		for i := range sc.queries {
			b, _ = appendAnswer(b, o, &sc.queries[i], texts, path)
			b = append(b, '\n')
			// Re-arm on elapsed time, not item count: slow uncached
			// queries must not let the window expire mid-batch while the
			// handler is making progress.
			if time.Since(armed) > streamWriteWindow/2 {
				armed = time.Now()
				_ = rc.SetWriteDeadline(armed.Add(streamWriteWindow))
			}
			if (i+1)%streamFlushEvery == 0 {
				if _, err := w.Write(b); err != nil {
					return // client went away; nothing sensible to write
				}
				b = b[:0]
				// ResponseController.Flush reaches flushers behind
				// Unwrap-ing middleware; ErrNotSupported (plain recorders)
				// just means more buffering.
				_ = rc.Flush()
				if ctx.Err() != nil {
					return // client gone: stop burning BFS time
				}
			}
		}
		// Terminal line: lets clients tell completion from truncation
		// (result lines never carry "done").
		b = append(b, `{"done":true,"results":`...)
		b = appendInt(b, n)
		b = append(b, "}\n"...)
		_, _ = w.Write(b)
		_ = rc.Flush()
		return
	}
	b = append(b, `{"results":[`...)
	values := 0
	for i := range sc.queries {
		if i > 0 {
			b = append(b, ',')
		}
		var v int
		b, v = appendAnswer(b, o, &sc.queries[i], texts, path)
		values += v
		if values > maxBatchResultValues {
			writeErr(w, http.StatusRequestEntityTooLarge,
				"batch response exceeds %d values at item %d; use \"stream\": true", maxBatchResultValues, i)
			return
		}
		if (i+1)%streamFlushEvery == 0 && ctx.Err() != nil {
			return // client gone before any byte was written; drop the work
		}
	}
	b = append(b, "]}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// appendAnswer answers one decoded JSON item and appends its result
// object, with the build's fault-free table texts and the request's route
// buffer. It also returns the response values the result holds, counted
// as the binary path counts them against maxBatchResultValues: two fixed
// words plus the table or the path.
//
//ftbfs:hotpath
func appendAnswer(b []byte, o *oracle.Oracle, q *query, texts []tableText, path *[]int) ([]byte, int) {
	r := answer(o, q, path)
	values := 2 + len(r.path)
	var text *tableText
	if r.view != nil {
		values += r.view.Len()
		text = textOf(texts, q.source)
	}
	return appendReply(b, q.op, r, text), values
}

// appendReply appends the JSON result object of one reply: {"error":…}
// for a rejected query, {"dists":[…]} for a table ({} when it is empty),
// {"dist":d,"reachable":…} for a distance, and for a route
// {"dist":d,"reachable":true,"path":[…]} or {"reachable":false}: the
// bytes encoding/json writes for the omitempty fields of batchResult, key
// order included. text is the fault-free table of the query's source,
// which a delta view is spliced from; a full view is encoded number by
// number.
//
//ftbfs:hotpath
func appendReply(b []byte, op queryOp, r reply, text *tableText) []byte {
	switch {
	case r.err != nil:
		b = append(b, `{"error":`...)
		b = appendString(b, r.err.Error())
		return append(b, '}')
	case op == opDists && r.view.Len() == 0:
		return append(b, "{}"...)
	case op == opDists && r.view.Full != nil:
		b = append(b, `{"dists":[`...)
		for i, d := range r.view.Full {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInt(b, int(d))
		}
		return append(b, "]}"...)
	case op == opDists:
		b = append(b, `{"dists":[`...)
		b = text.appendPatched(b, r.view.Keys, r.view.Vals)
		return append(b, "]}"...)
	case r.dist == bfs.Unreachable && op == opRoute:
		return append(b, `{"reachable":false}`...)
	case r.dist == bfs.Unreachable:
		b = append(b, `{"dist":`...)
		b = appendInt(b, int(r.dist))
		return append(b, `,"reachable":false}`...)
	}
	b = append(b, `{"dist":`...)
	b = appendInt(b, int(r.dist))
	b = append(b, `,"reachable":true`...)
	if len(r.path) > 0 {
		b = append(b, `,"path":[`...)
		for i, v := range r.path {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInt(b, v)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// tableText is one source's fault-free distance table as appendReply
// writes it: text holds the numbers of the JSON array, each followed by a
// comma ("d0,d1,…,dn−1,"), and off[v] is the byte offset of dv in it, with
// off[n] = len(text). A whole table that differs from the fault-free one
// at a few vertices is written by copying the text between them instead of
// encoding every number. A ready build keeps one per source, built once by
// newTableTexts.
type tableText struct {
	src  int
	text []byte
	off  []int32
}

// newTableTexts encodes the fault-free table of each source of set,
// indexed like its structure's sources.
func newTableTexts(set *oracle.OracleSet) []tableText {
	srcs := set.Structure().Sources
	out := make([]tableText, len(srcs))
	for i, s := range srcs {
		out[i] = newTableText(s, set.BaseDists(i))
	}
	return out
}

// newTableText encodes base, the fault-free table of source src.
func newTableText(src int, base []int32) tableText {
	t := tableText{src: src, off: make([]int32, len(base)+1)}
	for v, d := range base {
		t.off[v] = int32(len(t.text))
		t.text = append(appendInt(t.text, int(d)), ',')
	}
	t.off[len(base)] = int32(len(t.text))
	return t
}

// textOf returns the text of source s among texts, or nil when s is not
// one of them (the oracle then rejects the query).
//
//ftbfs:hotpath
func textOf(texts []tableText, s int) *tableText {
	for i := range texts {
		if texts[i].src == s {
			return &texts[i]
		}
	}
	return nil
}

// appendPatched appends the numbers of the JSON array of the table that
// equals t's except at keys (sorted, distinct), where it holds vals: the
// text between two keys is copied and each value encoded. It writes
// exactly what encoding the materialized table number by number writes.
//
//ftbfs:hotpath
func (t *tableText) appendPatched(b []byte, keys, vals []int32) []byte {
	from := int32(0)
	for i, k := range keys {
		b = append(b, t.text[from:t.off[k]]...)
		b = append(appendInt(b, int(vals[i])), ',')
		from = t.off[k+1]
	}
	b = append(b, t.text[from:]...)
	return b[:len(b)-1] // the last number's comma
}

// appendInt appends v in decimal, as strconv.AppendInt does. One- and
// two-digit values take a shortcut: distance tables are made of them, and
// whole tables are most of the bytes of a mixed batch.
func appendInt(b []byte, v int) []byte {
	switch {
	case uint(v) < 10:
		return append(b, byte('0'+v))
	case uint(v) < 100:
		return append(b, byte('0'+v/10), byte('0'+v%10))
	}
	return strconv.AppendInt(b, int64(v), 10)
}

// appendString appends s as a JSON string. A string of plain ASCII with
// nothing to escape, as every error text of the oracle is, is copied as
// is; any other goes through json.Marshal, whose HTML-safe escaping is the
// encoder's.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// decode decodes a batch body into sc, keeping at most keep items, and
// returns the item count and the stream flag: with decodeFast when the
// body was read whole and has the common shape, else with decodeStd.
func (sc *jsonScratch) decode(body []byte, readErr error, keep int) (n int, stream bool, err error) {
	if readErr == nil {
		if n, stream, ok := sc.decodeFast(body, keep); ok {
			return n, stream, nil
		}
	}
	return sc.decodeStd(body, readErr, keep)
}

// decodeFast decodes body if it has the common shape, keeping at most keep
// items, and returns the item count and the stream flag. ok is false for
// any other body, which must then go to decodeStd.
func (sc *jsonScratch) decodeFast(body []byte, keep int) (n int, stream, ok bool) {
	sc.queries, sc.faults = sc.queries[:0], sc.faults[:0]
	d := jsonDecoder{b: body}
	if !d.tok('{') {
		return 0, false, false
	}
	if !d.tok('}') {
		var seen uint8
		for {
			k, ok := d.key()
			var bit uint8
			switch {
			case !ok:
				return 0, false, false
			case keyIs(k, "queries"):
				bit = 1
				n, ok = sc.items(&d, keep)
			case keyIs(k, "stream"):
				bit = 2
				stream, ok = d.bool()
			default:
				return 0, false, false
			}
			if !ok || seen&bit != 0 {
				return 0, false, false
			}
			seen |= bit
			if d.tok('}') {
				break
			}
			if !d.tok(',') {
				return 0, false, false
			}
		}
	}
	d.ws()
	if d.i != len(d.b) {
		return 0, false, false
	}
	// Items hold their fault counts; slice them from the final arena, which
	// may have moved as it grew.
	off := 0
	for i := range sc.queries {
		k := len(sc.queries[i].faults)
		sc.queries[i].faults = sc.faults[off : off+k : off+k]
		off += k
	}
	return n, stream, true
}

// items decodes the queries array into sc and returns its length. Items
// past keep are checked but not kept: a batch that long is refused by its
// count alone.
//
//ftbfs:hotpath
func (sc *jsonScratch) items(d *jsonDecoder, keep int) (int, bool) {
	if !d.tok('[') {
		return 0, false
	}
	if d.tok(']') {
		return 0, true
	}
	for n := 1; ; n++ {
		start := len(sc.faults)
		q, ok := d.item(&sc.faults)
		if !ok {
			return 0, false
		}
		if n <= keep {
			sc.queries = append(sc.queries, q)
		} else {
			sc.faults = sc.faults[:start]
		}
		if d.tok(']') {
			return n, true
		}
		if !d.tok(',') {
			return 0, false
		}
	}
}

// decodeStd decodes body with a json.Decoder and DisallowUnknownFields,
// reading the bytes and then readErr, the error that cut the body short
// (nil when it was read whole). Its verdict is thus the one a json.Decoder
// streaming the request body gives. Items convert into sc as decodeFast
// stores them.
func (sc *jsonScratch) decodeStd(body []byte, readErr error, keep int) (n int, stream bool, err error) {
	var rd io.Reader = bytes.NewReader(body)
	if readErr != nil {
		rd = io.MultiReader(rd, errReader{readErr})
	}
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var req batchRequest
	if err := dec.Decode(&req); err != nil {
		return 0, false, err
	}
	sc.queries = sc.queries[:0]
	if len(req.Queries) <= keep {
		for i := range req.Queries {
			sc.queries = append(sc.queries, req.Queries[i].query())
		}
	}
	return len(req.Queries), req.Stream, nil
}

// query converts a decoded batch item into the shared query shape.
func (b *batchQuery) query() query {
	q := query{op: opDists, source: b.Source, faults: b.Faults}
	switch {
	case b.Target != nil && b.Route:
		q.op, q.target = opRoute, *b.Target
	case b.Target != nil:
		q.op, q.target = opDist, *b.Target
	case b.Route:
		q.op = opNoTarget
	}
	return q
}

// errReader replays the error that ended a body read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// jsonDecoder reads the common batch shape from b, starting at i. Every
// method reports false on input outside that shape; the body then goes to
// encoding/json, which judges it.
type jsonDecoder struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (d *jsonDecoder) ws() {
	for ; d.i < len(d.b); d.i++ {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// tok consumes the byte c after optional whitespace.
func (d *jsonDecoder) tok(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// lit consumes the literal s.
func (d *jsonDecoder) lit(s string) bool {
	if len(d.b)-d.i < len(s) {
		return false
	}
	for j := 0; j < len(s); j++ {
		if d.b[d.i+j] != s[j] {
			return false
		}
	}
	d.i += len(s)
	return true
}

// key reads an object key and its colon. A key with an escape or a
// control byte is declined.
func (d *jsonDecoder) key() ([]byte, bool) {
	if !d.tok('"') {
		return nil, false
	}
	for start := d.i; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			k := d.b[start:d.i]
			d.i++
			return k, d.tok(':')
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// keyIs reports whether key k spells name exactly.
func keyIs(k []byte, name string) bool {
	if len(k) != len(name) {
		return false
	}
	for i := range k {
		if k[i] != name[i] {
			return false
		}
	}
	return true
}

// bool reads true or false.
func (d *jsonDecoder) bool() (v, ok bool) {
	d.ws()
	if d.lit("true") {
		return true, true
	}
	return false, d.lit("false")
}

// int reads an integer literal of at most 18 digits (so it cannot
// overflow) that fits an int. A fraction or an exponent is declined.
func (d *jsonDecoder) int() (int, bool) {
	d.ws()
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	start := d.i
	var u uint64
	for ; d.i < len(d.b) && d.b[d.i]-'0' < 10; d.i++ {
		u = u*10 + uint64(d.b[d.i]-'0')
	}
	digits := d.i - start
	if digits == 0 || digits > 18 || digits > 1 && d.b[start] == '0' || u > math.MaxInt {
		return 0, false
	}
	if d.i < len(d.b) {
		switch d.b[d.i] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	if neg {
		return -int(u), true
	}
	return int(u), true
}

// ints appends the integers of a JSON array to dst.
func (d *jsonDecoder) ints(dst []int) ([]int, bool) {
	if !d.tok('[') {
		return dst, false
	}
	if d.tok(']') {
		return dst, true
	}
	for {
		v, ok := d.int()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if d.tok(']') {
			return dst, true
		}
		if !d.tok(',') {
			return dst, false
		}
	}
}

// item decodes one query object, appending its faults to *arena; the
// returned query's faults have the right length but must be re-sliced
// from the final arena.
//
//ftbfs:hotpath
func (d *jsonDecoder) item(arena *[]int) (query, bool) {
	var (
		q                 query
		seen              uint8
		hasTarget, routed bool
	)
	start := len(*arena)
	if !d.tok('{') {
		return q, false
	}
	if !d.tok('}') {
		for {
			k, ok := d.key()
			var bit uint8
			switch {
			case !ok:
				return q, false
			case keyIs(k, "source"):
				bit = 1
				q.source, ok = d.int()
			case keyIs(k, "target"):
				bit, hasTarget = 2, true
				q.target, ok = d.int()
			case keyIs(k, "faults"):
				bit = 4
				*arena, ok = d.ints(*arena)
			case keyIs(k, "route"):
				bit = 8
				routed, ok = d.bool()
			default:
				return q, false
			}
			if !ok || seen&bit != 0 {
				return q, false
			}
			seen |= bit
			if d.tok('}') {
				break
			}
			if !d.tok(',') {
				return q, false
			}
		}
	}
	q.faults = (*arena)[start:]
	switch {
	case hasTarget && routed:
		q.op = opRoute
	case hasTarget:
		q.op = opDist
	case routed:
		q.op = opNoTarget
	default:
		q.op = opDists
	}
	return q, true
}
