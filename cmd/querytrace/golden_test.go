package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden files: go test ./cmd/querytrace -run
// TestGolden -update.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// goldenRunEnv switches a re-executed test binary into the command itself:
// TestMain sees it and runs main() on the binary's arguments instead of the
// tests, so each golden case exercises the real flag parsing and printing.
const goldenRunEnv = "QUERYTRACE_GOLDEN_RUN"

func TestMain(m *testing.M) {
	if os.Getenv(goldenRunEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenCases pin querytrace's stdout: the per-strategy summaries alone,
// and on a small machine the full event trace with the critical-path and
// per-fragment breakdowns. Each name is also the golden file's base name.
var goldenCases = []struct {
	name string
	args []string
}{
	{"quiet", []string{"-quiet"}},
	{"trace_critpath_frags", []string{"-card", "2000", "-procs", "8", "-critpath", "-frags"}},
}

// TestGolden runs each case through the command and diffs its stdout
// against testdata/<name>.golden.
func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			got := runCommand(t, c.args...)
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout of querytrace %s differs from %s:\n%s",
					strings.Join(c.args, " "), path, firstDiff(string(want), string(got)))
			}
		})
	}
}

// runCommand re-executes the test binary as querytrace with args and
// returns its stdout; a non-zero exit fails the test with the stderr.
func runCommand(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), goldenRunEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("querytrace %s: %v:\n%s", strings.Join(args, " "), err, errOut.String())
	}
	return out.Bytes()
}

// firstDiff reports the first differing line of two outputs.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl, gl)
		}
	}
	return "(no differing line)"
}
