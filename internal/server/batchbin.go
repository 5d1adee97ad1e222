package server

import (
	"bytes"
	"errors"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/bfs"
	"repro/internal/oracle"
	"repro/internal/server/batchcodec"
)

// This file is the binary half of the batch query endpoint: the same
// route as the JSON batch (POST .../query), selected per request by the
// batchcodec Content-Type. The wire format is fixed-width and
// CRC-guarded (see internal/server/batchcodec). Items decode into the
// same query the JSON path builds and are answered by the same answer
// call; this file only decodes items and encodes replies, translating
// the oracle's rejection codes into the protocol's. The handler
// allocates per batch, never per valid item — body buffers and response
// writers are pooled, item decoding is a zero-copy view, and every reply
// appends straight into the pooled writer's buffers.

// binBodyPool recycles request-body buffers across batch requests,
// binary and JSON; binRespPool recycles binary response writers (record +
// value buffers). Both grow to the largest batch they have served and stay
// warm, so a steady query load settles into zero steady-state
// allocation outside Frame's single per-response slice.
var (
	binBodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	binRespPool = sync.Pool{New: func() any { return new(batchcodec.ResponseWriter) }}
)

// binErrCodes translates the oracle's rejection codes into the binary
// protocol's; any other error is internal.
var binErrCodes = map[oracle.ErrCode]batchcodec.ErrCode{
	oracle.ErrBadSource:   batchcodec.ErrBadSource,
	oracle.ErrBadTarget:   batchcodec.ErrBadTarget,
	oracle.ErrBadFault:    batchcodec.ErrBadFault,
	oracle.ErrFaultBudget: batchcodec.ErrFaultBudget,
}

// handleBatchQueryBinary answers one binary batch frame. Item errors
// are in-band records (a malformed item cannot fail the batch); frame
// errors — bad magic, truncation, CRC mismatch, length bombs — reject
// the whole request with 400 and the byte offset of the failure.
func (s *Server) handleBatchQueryBinary(w http.ResponseWriter, r *http.Request) {
	set, _ := s.readySet(w, r)
	if set == nil {
		return
	}
	buf := binBodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer binBodyPool.Put(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		writeErr(w, bodyErrStatus(err), "read body: %v", err)
		return
	}
	req, err := batchcodec.DecodeRequest(buf.Bytes())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad batch frame: %v", err)
		return
	}
	if req.Len() > s.cfg.MaxBatchQueries {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"batch of %d queries exceeds limit %d", req.Len(), s.cfg.MaxBatchQueries)
		return
	}
	o := set.Acquire()
	defer set.Release(o)
	rw := binRespPool.Get().(*batchcodec.ResponseWriter)
	rw.Reset()
	defer binRespPool.Put(rw)
	path := pathPool.Get().(*[]int)
	defer pathPool.Put(path)
	ctx := r.Context()
	values := 0
	var faults [2]int
	for i := 0; i < req.Len(); i++ {
		it := req.Item(i)
		if it.Valid() {
			q := binQuery(it, &faults)
			values += writeBinary(rw, q.op, answer(o, &q, path))
		} else {
			rw.Error(batchcodec.ErrBadItem)
			values += 2
		}
		// Same response-size bound as the JSON path: whole-table items on
		// big graphs must not force an arbitrarily large response into
		// memory. (The binary protocol has no streaming mode; oversized
		// workloads split the batch instead.)
		if values > maxBatchResultValues {
			writeErr(w, http.StatusRequestEntityTooLarge,
				"batch response exceeds %d values at item %d; split the batch", maxBatchResultValues, i)
			return
		}
		if (i+1)%streamFlushEvery == 0 && ctx.Err() != nil {
			return // client gone before any byte was written; drop the work
		}
	}
	frame := rw.Frame()
	w.Header().Set("Content-Type", batchcodec.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	_, _ = w.Write(frame)
}

// binQuery decodes one well-formed binary item into the shared query
// shape; its faults alias the caller's scratch array, so decoding does not
// allocate. Out-of-range IDs pass through for the oracle to reject.
//
//ftbfs:hotpath
func binQuery(it batchcodec.Item, faults *[2]int) query {
	faults[0], faults[1] = int(it.Fault0), int(it.Fault1)
	q := query{op: opDist, source: int(it.Source), target: int(it.Target), faults: faults[:it.NumFaults()]}
	if it.Route() {
		q.op = opRoute
	} else if it.AllDists() {
		q.op = opDists
	}
	return q
}

// writeBinary appends one reply to rw as exactly one record and returns
// the response values it contributed (2 fixed words + value words — the
// same accounting as the JSON path).
//
//ftbfs:hotpath
func writeBinary(rw *batchcodec.ResponseWriter, op queryOp, r reply) int {
	switch {
	case r.err != nil:
		rw.Error(binErrCode(r.err))
		return 2
	case op == opDists && r.view.Full != nil:
		rw.Dists(r.view.Full)
	case op == opDists:
		rw.DistsPatched(r.view.Base, r.view.Keys, r.view.Vals)
	case r.path != nil:
		rw.Path(r.path)
		return 2 + len(r.path)
	default:
		rw.Dist(r.dist, r.dist != bfs.Unreachable)
		return 2
	}
	return 2 + r.view.Len()
}

// binErrCode maps a query error to its in-band code.
func binErrCode(err error) batchcodec.ErrCode {
	var qe *oracle.QueryError
	if errors.As(err, &qe) {
		if code, ok := binErrCodes[qe.Code]; ok {
			return code
		}
	}
	return batchcodec.ErrInternal
}
