// Golden snapshot-compat tests: snapshot files are checked into testdata/
// and decoded against the golden structure fingerprints on every run.
// Silent format drift — an encoder or decoder change that still
// round-trips in-process but breaks files written by earlier commits —
// fails here, because the fixture bytes never change.
//
// The version-1 fixture is what the encoder writes today. The version-2
// fixture is a legacy file: the same build over a BFS-renumbered copy of
// the graph, written by an encoder that no longer exists. If the format
// version is ever bumped, add a fixture for it in the SAME commit and keep
// the old files decodable under their versions.
package ftbfs_test

import (
	"bytes"
	"os"
	"testing"

	ftbfs "repro"
)

const (
	goldenSnapshotPath   = "testdata/golden-v1-dual-sparse-gnp-80.ftbfs"
	goldenSnapshotV2Path = "testdata/golden-v2-ordered-dual-sparse-gnp-80.ftbfs"
)

// Fingerprints recorded in PR 3 (equivalence_test.go, case
// "dual/sparse-gnp-80") — the decoded snapshot must reproduce the exact
// structure and the exact oracle answer tables.
const (
	goldenStructureFP = "b6397b093386326806032c0b"
	goldenOracleFP    = "717b6992aa8b4b3ccf7935a9"
)

func TestGoldenSnapshotDecodes(t *testing.T) {
	sn, err := ftbfs.ReadSnapshotFile(goldenSnapshotPath)
	if err != nil {
		t.Fatalf("golden snapshot does not decode (format drift?): %v", err)
	}
	if sn.Meta.Graph != "golden" || sn.Meta.Build != "b1" || sn.Meta.Mode != "dual" {
		t.Fatalf("golden metadata drifted: %+v", sn.Meta)
	}
	st := sn.Structure
	if got := fingerprintStructure(st); got != goldenStructureFP {
		t.Errorf("decoded structure fingerprint = %s, want %s", got, goldenStructureFP)
	}
	if got := fingerprintOracle(t, st, 60); got != goldenOracleFP {
		t.Errorf("decoded oracle fingerprint = %s, want %s", got, goldenOracleFP)
	}
}

// TestGoldenSnapshotEncodeStable pins the ENCODER to the checked-in
// bytes: rebuilding the same structure and encoding it must reproduce the
// fixture exactly. An encoder change that alters the wire format without
// a version bump fails here.
func TestGoldenSnapshotEncodeStable(t *testing.T) {
	want, err := os.ReadFile(goldenSnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ftbfs.BuildDualFTBFS(ftbfs.SparseGNP(80, 6, 2015), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = ftbfs.EncodeSnapshot(&buf, &ftbfs.Snapshot{
		Structure: st,
		Meta:      ftbfs.SnapshotMeta{Graph: "golden", Build: "b1", Mode: "dual"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoding dual/sparse-gnp-80 produced %d bytes differing from the %d-byte fixture; "+
			"format changes require a version bump and a regenerated fixture", buf.Len(), len(want))
	}
}

// TestGoldenSnapshotV2OrderedDecodes pins the legacy version-2 decode: a
// file written for a BFS-renumbered graph must come back in the
// registered numbering — the edge table of the plain graph, the wire
// source, the golden fingerprints of the plain build — and re-encode as
// the version-1 fixture, byte for byte.
func TestGoldenSnapshotV2OrderedDecodes(t *testing.T) {
	sn, err := ftbfs.ReadSnapshotFile(goldenSnapshotV2Path)
	if err != nil {
		t.Fatalf("legacy v2 snapshot does not decode: %v", err)
	}
	if sn.Meta.Graph != "golden" || sn.Meta.Build != "b1" || sn.Meta.Mode != "dual" {
		t.Fatalf("v2 metadata drifted: %+v", sn.Meta)
	}
	st := sn.Structure
	plain := ftbfs.SparseGNP(80, 6, 2015)
	if st.G.N() != plain.N() || st.G.M() != plain.M() {
		t.Fatalf("decoded graph n=%d m=%d, want n=%d m=%d", st.G.N(), st.G.M(), plain.N(), plain.M())
	}
	for id := 0; id < plain.M(); id++ {
		if got, want := st.G.EdgeAt(id), plain.EdgeAt(id); got != want {
			t.Fatalf("edge %d decodes as %v, want %v", id, got, want)
		}
	}
	if len(st.Sources) != 1 || st.Sources[0] != 0 {
		t.Fatalf("decoded sources %v, want [0]", st.Sources)
	}
	if got := fingerprintStructure(st); got != goldenStructureFP {
		t.Errorf("decoded structure fingerprint = %s, want %s", got, goldenStructureFP)
	}
	if got := fingerprintOracle(t, st, 60); got != goldenOracleFP {
		t.Errorf("decoded oracle fingerprint = %s, want %s", got, goldenOracleFP)
	}
	want, err := os.ReadFile(goldenSnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ftbfs.EncodeSnapshot(&buf, sn); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("re-encoded v2 snapshot (%d bytes) differs from the v1 fixture (%d bytes)", buf.Len(), len(want))
	}
}
