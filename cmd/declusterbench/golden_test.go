package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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
	{"open_kill", small("-open", "-lambda", "100", "-kill-disk", "1@2ms")},
	{"scaleout", small("-fig", "none", "-scaleout")},
	// The elasticity case uses the CI smoke's arguments: a small cluster
	// where both the join and the decommission cut over.
	{"elastic", []string{"-elastic", "-scale", "quick", "-card", "1000", "-procs", "4",
		"-lambda", "100", "-measure", "300", "-warmup", "5", "-seed", "7",
		"-join-at", "200ms", "-leave-at", "900ms", "-parallel", "2"}},
	// MTBF transient faults on every disk: the injector's per-disk loops.
	{"mtbf", small("-fig", "8a", "-mpl", "1,4", "-mtbf", "200ms")},
	// A member crash mid-run: the controller promotes it to a repair task
	// and the copier drains the dead member's data.
	{"elastic_kill", []string{"-elastic", "-scale", "quick", "-card", "1000", "-procs", "4",
		"-lambda", "100", "-measure", "300", "-warmup", "5", "-seed", "7",
		"-join-at", "200ms", "-leave-at", "900ms", "-parallel", "2", "-kill-node", "1@50ms"}},
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

// csvCases pin the files -ts-dir and -heatmap-dir write: the per-window
// telemetry series and the per-fragment index page, data page and byte
// accounting. Each name is also the directory under testdata/csv holding
// the case's ts/ and heat/ files.
var csvCases = []struct {
	name string
	args []string
}{
	{"closed_kill", small("-fig", "8a", "-mpl", "4", "-kill-disk", "1@2ms")},
	{"open", small("-open", "-fig", "10a", "-lambda", "400")},
}

// TestGoldenCSV runs each CSV case with -ts-dir and -heatmap-dir pointed
// at a temporary directory and diffs every file written there against
// testdata/csv/<name>; a missing or extra file fails the case too.
func TestGoldenCSV(t *testing.T) {
	for _, c := range csvCases {
		t.Run(c.name, func(t *testing.T) {
			out := t.TempDir()
			runCommand(t, append(c.args, "-ts-dir", filepath.Join(out, "ts"),
				"-heatmap-dir", filepath.Join(out, "heat"))...)
			dir := filepath.Join("testdata", "csv", c.name)
			for _, sub := range []string{"ts", "heat"} {
				got := readDir(t, filepath.Join(out, sub))
				if len(got) == 0 {
					t.Fatalf("declusterbench %s wrote no %s files", strings.Join(c.args, " "), sub)
				}
				if *update {
					writeDir(t, filepath.Join(dir, sub), got)
					continue
				}
				want := readDir(t, filepath.Join(dir, sub))
				for _, name := range sortedKeys(want, got) {
					w, inWant := want[name]
					g, inGot := got[name]
					switch {
					case !inWant:
						t.Errorf("%s/%s: written but not in %s (run with -update)", sub, name, dir)
					case !inGot:
						t.Errorf("%s/%s: in %s but not written", sub, name, dir)
					case !bytes.Equal(g, w):
						t.Errorf("%s/%s differs from %s:\n%s", sub, name, dir, firstDiff(string(w), string(g)))
					}
				}
			}
		})
	}
}

// readDir returns the contents of every file in dir by name; a missing
// directory reads as empty.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// writeDir replaces dir's contents with files.
func writeDir(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// sortedKeys returns the union of a's and b's keys in order.
func sortedKeys(a, b map[string][]byte) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
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
