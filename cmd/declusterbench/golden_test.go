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

// update regenerates the golden files: go test ./cmd/declusterbench -run
// TestGolden -update.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// goldenRunEnv switches a re-executed test binary into the command itself:
// TestMain sees it and runs run() on the binary's arguments instead of the
// tests, so each golden case exercises the real flag parsing and printing.
const goldenRunEnv = "DECLUSTERBENCH_GOLDEN_RUN"

func TestMain(m *testing.M) {
	if os.Getenv(goldenRunEnv) == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// small keeps a case small: quick scale at 2000 tuples and a short
// measurement window, on two workers (output does not depend on the worker
// count).
func small(args ...string) []string {
	return append([]string{"-scale", "quick", "-card", "2000", "-measure", "50",
		"-warmup", "10", "-seed", "7", "-parallel", "2"}, args...)
}

// goldenCases pin stdout of every campaign declusterbench runs. Each name
// is also the golden file's base name.
var goldenCases = []struct {
	name string
	args []string
}{
	{"closed", small("-fig", "8a", "-mpl", "1,4", "-detail", "-node-stats", "-plot")},
	{"closed_heat_kill", small("-fig", "8a", "-mpl", "1,4", "-heatmap", "-kill-disk", "1@2ms")},
	{"closed_kill_node", small("-fig", "8a", "-mpl", "1,4", "-kill-node", "1@2ms")},
	{"degraded", small("-fig", "8a", "-mpl", "1,4", "-faults", "0,1")},
	{"sharing", small("-share", "-mpl", "8")},
	{"open", small("-open", "-lambda", "100,400", "-ts-window", "250ms", "-detail", "-heatmap")},
	{"scaleout", small("-fig", "none", "-scaleout")},
	// The elasticity case uses the CI smoke's arguments: a small cluster
	// where both the join and the decommission cut over.
	{"elastic", []string{"-elastic", "-scale", "quick", "-card", "1000", "-procs", "4",
		"-lambda", "100", "-measure", "300", "-warmup", "5", "-seed", "7",
		"-join-at", "200ms", "-leave-at", "900ms", "-parallel", "2"}},
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
				t.Errorf("stdout of declusterbench %s differs from %s:\n%s",
					strings.Join(c.args, " "), path, firstDiff(string(want), string(got)))
			}
		})
	}
}

// runCommand re-executes the test binary as declusterbench with args and
// returns its stdout; a non-zero exit fails the test with the stderr.
func runCommand(t *testing.T, args ...string) []byte {
	t.Helper()
	stdout, stderr, code := execCommand(t, args...)
	if code != 0 {
		t.Fatalf("declusterbench %s exited %d:\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

// execCommand re-executes the test binary as declusterbench with args and
// returns its stdout, stderr and exit status.
func execCommand(t *testing.T, args ...string) (stdout []byte, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), goldenRunEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	return out.Bytes(), errOut.String(), code
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
