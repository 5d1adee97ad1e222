package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// v2FixturePath is a legacy version-2 file: the dual build of
// SparseGNP(80, 6, 2015) from source 0 over a BFS-renumbered copy of the
// graph, written by the encoder that had a VPRM section.
const v2FixturePath = "../../testdata/golden-v2-ordered-dual-sparse-gnp-80.ftbfs"

func v2Fixture(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(v2FixturePath)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestOrderedRoundTrip decodes the legacy version-2 fixture into the
// registered numbering (the plain graph's edge table and the wire source)
// and requires its re-encoding to be a version-1 file that decodes to the
// same snapshot.
func TestOrderedRoundTrip(t *testing.T) {
	data := v2Fixture(t)
	info, err := Inspect(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || len(info.Sections) != 4 || info.Sections[3].ID != "VPRM" {
		t.Fatalf("fixture layout: version %d sections %+v", info.Version, info.Sections)
	}
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	plain := gen.SparseGNP(80, 6, 2015)
	wantEdges, gotEdges := plain.Edges(), got.Structure.G.Edges()
	if got.Structure.G.N() != plain.N() || len(gotEdges) != len(wantEdges) {
		t.Fatalf("decoded graph n=%d m=%d, want n=%d m=%d", got.Structure.G.N(), len(gotEdges), plain.N(), len(wantEdges))
	}
	for id := range wantEdges {
		if gotEdges[id] != wantEdges[id] {
			t.Fatalf("edge %d = %v, want %v", id, gotEdges[id], wantEdges[id])
		}
	}
	if s := got.Structure.Sources; len(s) != 1 || s[0] != 0 {
		t.Fatalf("sources = %v, want [0]", s)
	}

	v1 := mustEncode(t, got)
	info, err = Inspect(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || len(info.Sections) != 3 {
		t.Fatalf("re-encoding wrote version %d with %d sections", info.Version, len(info.Sections))
	}
	again, err := Decode(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	checkEqual(t, got, again)
}

// TestPlainSnapshotStaysVersion1 pins the header decision: the encoder
// writes version 1 with three sections (the golden fixture test pins the
// exact bytes).
func TestPlainSnapshotStaysVersion1(t *testing.T) {
	st, err := core.BuildDual(gen.SparseGNP(30, 4, 2), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := mustEncode(t, &Snapshot{Structure: st})
	info, err := Inspect(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || len(info.Sections) != 3 {
		t.Fatalf("plain snapshot wrote version %d with %d sections", info.Version, len(info.Sections))
	}
}

// TestOrderedTruncationAndCorruption runs the hostile-input sweeps over
// the version-2 fixture: every prefix and every byte flip (which includes
// the whole VPRM section) must fail with a *FormatError.
func TestOrderedTruncationAndCorruption(t *testing.T) {
	data := v2Fixture(t)
	for cut := 0; cut < len(data); cut++ {
		_, err := Decode(bytes.NewReader(data[:cut]))
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("truncation at %d of %d: got %v, want *FormatError", cut, len(data), err)
		}
	}
	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		_, err := Decode(bytes.NewReader(mut))
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("flip at %d: got %v, want *FormatError", pos, err)
		}
	}
}

// TestOrderedSnapshotBadPerm corrupts the fixture's VPRM section
// semantically — valid CRC, invalid permutation — and requires the
// decoder to reject it.
func TestOrderedSnapshotBadPerm(t *testing.T) {
	data := v2Fixture(t)
	info, err := Inspect(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// VPRM is the last section: its payload (count, then one entry per
	// vertex) is followed only by its CRC.
	end := len(data) - 4
	start := end - int(info.Sections[3].Bytes)
	n := binary.LittleEndian.Uint32(data[start:])
	entry := func(b []byte, i int) []byte { return b[start+4+4*i:] }
	for name, corrupt := range map[string]func(b []byte){
		"duplicate":    func(b []byte) { copy(entry(b, 1), entry(b, 0)[:4]) },
		"out of range": func(b []byte) { binary.LittleEndian.PutUint32(entry(b, 5), n) },
		"count":        func(b []byte) { binary.LittleEndian.PutUint32(b[start:], n-1) },
	} {
		mut := append([]byte(nil), data...)
		corrupt(mut)
		binary.LittleEndian.PutUint32(mut[end:], crc32.Checksum(mut[start:end], castagnoli))
		_, err := Decode(bytes.NewReader(mut))
		var fe *FormatError
		if !errors.As(err, &fe) || !strings.Contains(fe.Msg, "order map") {
			t.Fatalf("%s: got %v, want an order-map *FormatError", name, err)
		}
	}
}
