package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// covdataOutput is go tool covdata func output in its real shape: a
// function's file and the line its body opens on, its name, the share of
// its statements that ran. A generic type's method is named alone ("Put"),
// and functions outside internal/ and the total are not checked.
const covdataOutput = `repro/cmd/querytrace/main.go:50:		main					53.0%
repro/internal/sim/engine.go:199:		*Engine.release				100.0%
repro/internal/sim/mailbox.go:63:		Name					0.0%
repro/internal/sim/mailbox.go:143:		Put					81.8%
repro/internal/stats/stats.go:12:		Accumulator.Mean			0.0%
total					(statements)				71.3%
`

func TestParseCovdata(t *testing.T) {
	ran, err := parseCovdata(covdataOutput, "repro/")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"internal/sim/engine.go:199": true, "internal/sim/mailbox.go:143": true}
	if !reflect.DeepEqual(ran, want) {
		t.Errorf("ran = %v, want %v", ran, want)
	}
	if _, err := parseCovdata("repro/internal/sim/engine.go:9:	Run	most%\n", "repro/"); err == nil {
		t.Error("a malformed percentage was accepted")
	}
}

// check keys the coverage output by position: a generic method counts as
// run under its own key, a function at 0.0% or missing from the output
// (no binary links it) does not, and an allowlisted function that ran is a
// stale entry.
func TestCheck(t *testing.T) {
	ran, err := parseCovdata(covdataOutput, "repro/")
	if err != nil {
		t.Fatal(err)
	}
	decls := []decl{
		{key: "sim.Engine.release", pos: "internal/sim/engine.go:199"},
		{key: "sim.Mailbox.Put", pos: "internal/sim/mailbox.go:143"},
		{key: "sim.Mailbox.Name", pos: "internal/sim/mailbox.go:63"},       // 0.0%
		{key: "stats.Accumulator.Mean", pos: "internal/stats/stats.go:12"}, // 0.0%, allowlisted
		{key: "gamma.LoadTable", pos: "internal/gamma/load.go:9"},          // absent
	}
	allow := map[string]string{
		"stats.Accumulator.Mean": "test oracle",
		"sim.Engine.release":     "stale: a run executes it",
		"hw.Disk.Read":           "stale: no longer declared",
	}
	unreached, stale := check(decls, ran, allow)
	var got []string
	for _, d := range unreached {
		got = append(got, d.pos+" "+d.key)
	}
	if want := []string{"internal/sim/mailbox.go:63 sim.Mailbox.Name", "internal/gamma/load.go:9 gamma.LoadTable"}; !reflect.DeepEqual(got, want) {
		t.Errorf("unreached = %q, want %q", got, want)
	}
	if want := []string{"hw.Disk.Read is not declared", "sim.Engine.release is run"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale = %q, want %q", stale, want)
	}
}

func TestParseAllowlist(t *testing.T) {
	allow, err := parseAllowlist("# comment\n\nsim.Engine.Run  drives test engines \n")
	if err != nil || !reflect.DeepEqual(allow, map[string]string{"sim.Engine.Run": "drives test engines"}) {
		t.Fatalf("parseAllowlist = %v, %v", allow, err)
	}
	for _, bad := range []string{"sim.Engine.Run\n", "sim.Engine.Run   \n", "a.B one\na.B two\n"} {
		if _, err := parseAllowlist(bad); err == nil {
			t.Errorf("parseAllowlist(%q) accepted it", bad)
		}
	}
	if _, err := parseAllowlist(allowlistText); err != nil {
		t.Errorf("allowlist.txt: %v", err)
	}
}

// declared keys the module's own declarations by package, receiver type
// and name: a generic type's methods by the type's name, pointer and value
// receivers alike, and nothing from this tool's directory or test files.
func TestDeclared(t *testing.T) {
	decls, err := declared("../../..")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{}
	for _, d := range decls {
		keys[d.key] = d.pos
	}
	for _, k := range []string{"sim.Mailbox.Put", "sim.NewMailbox", "sim.Engine.RunUntil", "stats.Accumulator.Mean", "obs.Histogram.Stats"} {
		if keys[k] == "" {
			t.Errorf("%s not declared", k)
		}
	}
	if pos := keys["sim.Mailbox.Put"]; !strings.HasPrefix(pos, "internal/sim/mailbox.go:") {
		t.Errorf("sim.Mailbox.Put at %q", pos)
	}
	// A position is the line the body opens on, also under a signature
	// that spans lines.
	for _, k := range []string{"sim.Mailbox.Put", "exec.NewNode"} {
		file, line, _ := strings.Cut(keys[k], ":")
		src, err := os.ReadFile(filepath.Join("../../..", file))
		if err != nil {
			t.Fatal(err)
		}
		n, _ := strconv.Atoi(line)
		if lines := strings.Split(string(src), "\n"); n < 1 || n > len(lines) || !strings.HasSuffix(lines[n-1], "{") {
			t.Errorf("%s at %s, a line that opens no body", k, keys[k])
		}
	}
	if pos := keys["buffer.referencePool.ReadHeat"]; pos != "" {
		t.Errorf("test-only buffer.referencePool.ReadHeat declared at %s", pos)
	}
	for k := range keys {
		if strings.HasPrefix(k, "tools/") || strings.HasSuffix(k, ".init") {
			t.Errorf("%s declared", k)
		}
	}
}
