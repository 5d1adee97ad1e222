package edgelist

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead exercises the parser against arbitrary input: it must never
// panic, and any successfully parsed graph must round-trip through Write.
func FuzzRead(f *testing.F) {
	seeds := []string{
		"",
		"n 5\n0 1\n1 2\n",
		"# only a comment\n",
		"0 1\n1 7\n",
		"n 0\n",
		"n 3\n0 1 # c\n",
		"n -1\n",
		"0\n",
		"x y\n",
		"n 2\n0 1\n0 1\n",
		strings.Repeat("0 1\n", 3),
		"n 9999999\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g.N() > 1<<22 {
			return // writing giant headers is pointless
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round-trip re-read: %v", err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				back.N(), back.M(), g.N(), g.M())
		}
	})
}
