package lint

import (
	"os"
	"strings"
)

// Lock files are committed fingerprints of state that must not drift
// silently: the snapshot wire schema and the exported facade surface.
// They live in the directory Config.LockDir names (in this repo,
// internal/lint/testdata) and are regenerated with regenerateCmd, run
// from the module root. Generation is deterministic, so two consecutive
// regenerations are byte-identical — which is what lets a test diff them
// and reviewers see schema changes as ordinary file diffs.
const (
	SnapSchemaLockFile = "snapschema.lock"
	APISurfaceLockFile = "apisurface.lock"

	regenerateCmd = "go test ./internal/lint -run TestLintTree -update-locks"
)

// readLockLines loads a lock file's content lines, dropping '#' comment
// lines and blanks. The second result reports whether the file exists.
func readLockLines(path string) ([]string, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if trimmed := strings.TrimSpace(line); trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		out = append(out, line)
	}
	return out, true, nil
}

// writeLock writes header comments plus content lines, one per line,
// trailing newline, 0o644 — the canonical byte-stable form.
func writeLock(path string, header, lines []string) error {
	var b strings.Builder
	for _, h := range header {
		b.WriteString("# ")
		b.WriteString(h)
		b.WriteString("\n")
	}
	for _, l := range lines {
		b.WriteString(l)
		b.WriteString("\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
