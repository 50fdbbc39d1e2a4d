package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// update regenerates the golden file: go test ./examples/join -update.
var update = flag.Bool("update", false, "rewrite testdata/stdout.golden from the current output")

// goldenRunEnv switches a re-executed test binary into the example itself:
// TestMain sees it and runs main() instead of the tests.
const goldenRunEnv = "JOIN_EXAMPLE_GOLDEN_RUN"

func TestMain(m *testing.M) {
	if os.Getenv(goldenRunEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden pins the example's stdout: each setup's match count, response
// time and operator packets, the co-located join's timing among them.
func TestGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), goldenRunEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("join example: %v:\n%s", err, errOut.String())
	}
	const path = "testdata/stdout.golden"
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("stdout differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
	if n := strings.Count(out.String(), " 3200 matches "); n != 3 {
		t.Errorf("%d setups report 3200 matches, want 3", n)
	}
}
