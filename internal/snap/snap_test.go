package snap

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/oracle"
)

// buildSnapshots returns a varied set of snapshots: different builders,
// fault models, source counts and graph families.
func buildSnapshots(t *testing.T) map[string]*Snapshot {
	t.Helper()
	out := make(map[string]*Snapshot)
	add := func(name string, st *core.Structure, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = &Snapshot{
			Structure: st,
			Meta:      Meta{Graph: "g-" + name, Build: "b1", Mode: "dual", Seed: 7, ElapsedMS: 12.5},
		}
	}
	st, err := core.BuildDual(gen.SparseGNP(60, 5, 3), 0, nil)
	add("dual-sparse", st, err)
	st, err = core.BuildSingle(gen.TreePlusChords(40, 6, 2), 0, nil)
	add("single-chords", st, err)
	st, err = core.BuildExhaustive(gen.Grid(4, 4), 0, 2, nil)
	add("exhaustive-grid", st, err)
	st, err = core.BuildVertexExhaustive(gen.GNP(24, 0.25, 5), 0, 2, nil)
	add("vertex-gnp", st, err)
	st, err = core.BuildMultiSource(gen.Layered(4, 6, 0.3, 9), []int{0, 3}, nil, core.BuildDual)
	add("multi-layered", st, err)
	return out
}

// checkEqual asserts observational equality of two snapshots: graph CSR
// arrays, structure fields, stats, and metadata.
func checkEqual(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if got.Meta != want.Meta {
		t.Fatalf("meta = %+v, want %+v", got.Meta, want.Meta)
	}
	ws, gs := want.Structure, got.Structure
	if gs.Faults != ws.Faults || gs.VertexFaults != ws.VertexFaults {
		t.Fatalf("fault model = (%d,%v), want (%d,%v)", gs.Faults, gs.VertexFaults, ws.Faults, ws.VertexFaults)
	}
	if len(gs.Sources) != len(ws.Sources) {
		t.Fatalf("sources = %v, want %v", gs.Sources, ws.Sources)
	}
	for i := range ws.Sources {
		if gs.Sources[i] != ws.Sources[i] {
			t.Fatalf("sources = %v, want %v", gs.Sources, ws.Sources)
		}
	}
	if gs.Stats != ws.Stats {
		t.Fatalf("stats = %+v, want %+v", gs.Stats, ws.Stats)
	}
	wantEdges, wantOff, wantArcs, wantSorted := ws.G.CSRData()
	gotEdges, gotOff, gotArcs, gotSorted := gs.G.CSRData()
	if gs.G.N() != ws.G.N() || len(gotEdges) != len(wantEdges) {
		t.Fatalf("graph size %d/%d, want %d/%d", gs.G.N(), len(gotEdges), ws.G.N(), len(wantEdges))
	}
	for i := range wantEdges {
		if gotEdges[i] != wantEdges[i] {
			t.Fatalf("edge %d = %v, want %v", i, gotEdges[i], wantEdges[i])
		}
	}
	for i := range wantOff {
		if gotOff[i] != wantOff[i] {
			t.Fatalf("arcOff[%d] = %d, want %d", i, gotOff[i], wantOff[i])
		}
	}
	for i := range wantArcs {
		if gotArcs[i] != wantArcs[i] || gotSorted[i] != wantSorted[i] {
			t.Fatalf("arc %d = %v/%v, want %v/%v", i, gotArcs[i], gotSorted[i], wantArcs[i], wantSorted[i])
		}
	}
	if gs.Edges.Len() != ws.Edges.Len() {
		t.Fatalf("kept edges = %d, want %d", gs.Edges.Len(), ws.Edges.Len())
	}
	wantIDs, gotIDs := ws.Edges.IDs(), gs.Edges.IDs()
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("kept edge %d = %d, want %d", i, gotIDs[i], wantIDs[i])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for name, snap := range buildSnapshots(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Encode(&buf, snap); err != nil {
				t.Fatal(err)
			}
			got, err := Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			checkEqual(t, snap, got)

			// Determinism: encoding the decoded snapshot reproduces the
			// bytes exactly.
			var buf2 bytes.Buffer
			if err := Encode(&buf2, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatalf("re-encoding is not byte-identical (%d vs %d bytes)", buf.Len(), buf2.Len())
			}
		})
	}
}

// TestRoundTripOracleAnswers proves the decoded structure answers queries
// bit-identically to the original, through a freshly rehydrated oracle set.
func TestRoundTripOracleAnswers(t *testing.T) {
	st, err := core.BuildDual(gen.SparseGNP(50, 5, 11), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, &Snapshot{Structure: st}); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	setA, err := oracle.NewSet(st, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	setB, err := oracle.NewSet(dec.Structure, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	oa, ob := setA.Handle(), setB.Handle()
	m := st.G.M()
	for f1 := 0; f1 < m; f1 += 7 {
		for f2 := f1 + 3; f2 < m; f2 += 31 {
			faults := []int{f1, f2}
			da, err := oa.Dists(0, faults)
			if err != nil {
				t.Fatal(err)
			}
			db, err := ob.Dists(0, faults)
			if err != nil {
				t.Fatal(err)
			}
			for v := range da {
				if da[v] != db[v] {
					t.Fatalf("faults %v: dist[%d] = %d via snapshot, %d direct", faults, v, db[v], da[v])
				}
			}
		}
	}
}

func mustEncode(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTruncationRejected decodes every proper prefix of a valid snapshot:
// all must fail with a *FormatError, none may panic or succeed.
func TestTruncationRejected(t *testing.T) {
	st, err := core.BuildDual(gen.GNP(16, 0.3, 4), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := mustEncode(t, &Snapshot{Structure: st, Meta: Meta{Graph: "t"}})
	for cut := 0; cut < len(data); cut++ {
		_, err := Decode(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d of %d decoded successfully", cut, len(data))
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("truncation at %d: error %v is not a *FormatError", cut, err)
		}
		if fe.Offset < 0 || fe.Offset > int64(len(data)) {
			t.Fatalf("truncation at %d: error offset %d out of file range", cut, fe.Offset)
		}
	}
}

// TestCorruptionRejected flips one byte at a time through the whole file:
// every flip must either fail a checksum/validation or (header fields
// only) fail structurally — and the error must carry a plausible offset.
func TestCorruptionRejected(t *testing.T) {
	st, err := core.BuildDual(gen.GNP(14, 0.3, 9), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := mustEncode(t, &Snapshot{Structure: st, Meta: Meta{Graph: "c", Mode: "dual"}})
	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		_, err := Decode(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flip at %d decoded successfully", pos)
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("flip at %d: error %v is not a *FormatError", pos, err)
		}
	}
}

func TestDecodeRejectsWrongMagicAndVersion(t *testing.T) {
	st, err := core.BuildDual(gen.PathGraph(6), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := mustEncode(t, &Snapshot{Structure: st})

	bad := append([]byte(nil), data...)
	copy(bad, "NOTASNAP")
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Fatal("wrong magic accepted")
	}

	bad = append([]byte(nil), data...)
	bad[8] = 99 // version
	_, err = Decode(bytes.NewReader(bad))
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Offset != 8 {
		t.Fatalf("wrong version: got %v, want FormatError at offset 8", err)
	}
}

func TestWriteFileReadFile(t *testing.T) {
	st, err := core.BuildDual(gen.GNP(20, 0.25, 2), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := &Snapshot{Structure: st, Meta: Meta{Graph: "file", Build: "b9", Seed: 3}}
	path := filepath.Join(t.TempDir(), "s.ftbfs")
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkEqual(t, want, got)
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want just the snapshot", len(entries))
	}
}

func TestEncodeRejectsEmptySnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if err := Encode(&buf, &Snapshot{}); err == nil {
		t.Fatal("snapshot without structure accepted")
	}
}
