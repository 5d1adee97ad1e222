package exp

import (
	"math"
	"strings"
	"testing"
)

func tinyCfg() Config {
	return Config{Sizes: []int{30, 45}, Seeds: 1}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:     "T",
		Title:  "demo",
		Claim:  "c",
		Header: []string{"a", "bb"},
	}
	tbl.AddRow("1", "2")
	tbl.AddNote("note %d", 7)
	s := tbl.String()
	for _, want := range []string{"== T: demo", "paper: c", "a", "bb", "note: note 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestFitExponent(t *testing.T) {
	// y = 3 x^2 → slope 2.
	xs := []float64{10, 20, 40, 80}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	if got := FitExponent(xs, ys); math.Abs(got-2) > 1e-9 {
		t.Fatalf("slope = %v", got)
	}
	if !math.IsNaN(FitExponent([]float64{1}, []float64{1})) {
		t.Fatal("single point should give NaN")
	}
	if !math.IsNaN(FitExponent([]float64{1, -2}, []float64{1, 2})) {
		t.Fatal("non-positive points should be dropped")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if len(c.sizes()) == 0 || c.seeds() == 0 {
		t.Fatal("zero config should self-upgrade")
	}
	full := Config{Full: true}
	if len(full.sizes()) < 4 {
		t.Fatal("full profile should sweep more sizes")
	}
}

// Each experiment must run clean at tiny scale and produce rows.
func TestExperimentsRun(t *testing.T) {
	cfg := tinyCfg()
	if len(Experiments) != 13 {
		t.Fatalf("%d experiments registered, want 13", len(Experiments))
	}
	for _, r := range Experiments {
		t.Run(r.ID, func(t *testing.T) {
			tbl, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			if tbl.ID != r.ID {
				t.Fatalf("table ID %q", tbl.ID)
			}
		})
	}
}
