package main

import (
	"reflect"
	"strings"
	"testing"
)

// nmOutput is go tool nm output in its real shape: the address padded to
// eight columns, the symbol type, then a name that may hold spaces.
const nmOutput = `  4a3b20 T repro/internal/sim.(*Engine).RunUntil
  4a3c40 T repro/internal/stats.Accumulator.Mean
  4a3d60 T repro/internal/sim.(*Mailbox[go.shape.struct { repro/internal/exec.kind int; repro/internal/exec.body interface {} }]).Put
  4a3e80 T repro/internal/sim.(*Mailbox[go.shape.struct { F []int "json:\"f]\"" }]).GetTimeout.func1
  4a3fa0 t repro/internal/gamma.(*Machine).Run.deferwrap1
  4a40c0 T repro/internal/obs.(*Sampler).Sample-fm
  4a41e0 T repro/internal/core.bucketOf[go.shape.int64]
  4a4300 T repro/internal/sim.init.0
  5c0000 R repro/internal/sim..dict.Mailbox[int]
  5c1000 D repro/internal/sim.Stray
         U repro/internal/sim.Unresolved
  4a4420 T fmt.Sprintf
`

func TestSymbolKeys(t *testing.T) {
	for _, tc := range []struct {
		sym  string
		want []string
	}{
		{"sim.NewEngine", []string{"sim.NewEngine"}},
		// Pointer and value receivers give the same key.
		{"sim.(*Engine).RunUntil", []string{"sim.Engine", "sim.Engine.RunUntil"}},
		{"stats.Accumulator.Mean", []string{"stats.Accumulator", "stats.Accumulator.Mean"}},
		// A generic method is named by the shape of its type argument.
		{"sim.(*Mailbox[go.shape.struct { repro/internal/exec.kind int; repro/internal/exec.body interface {} }]).Close",
			[]string{"sim.Mailbox", "sim.Mailbox.Close"}},
		{"sim.Mailbox[go.shape.int].Len", []string{"sim.Mailbox", "sim.Mailbox.Len"}},
		{"core.bucketOf[go.shape.int64]", []string{"core.bucketOf"}},
		// Closures, method values and defer wrappers stand for their function.
		{"sim.NewEngine.func2", []string{"sim.NewEngine", "sim.NewEngine.func2"}},
		{"sim.(*Engine).Close.func1.1", []string{"sim.Engine", "sim.Engine.Close"}},
		{"obs.(*Sampler).Sample-fm", []string{"obs.Sampler", "obs.Sampler.Sample"}},
		// Nested packages keep their path.
		{"tools/unreached.check", []string{"tools/unreached.check"}},
	} {
		if got := symbolKeys(tc.sym); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("symbolKeys(%q) = %q, want %q", tc.sym, got, tc.want)
		}
	}
}

func TestAddNM(t *testing.T) {
	linked := map[string]bool{}
	addNM(linked, nmOutput, "repro/internal/")
	for _, k := range []string{
		"sim.Engine.RunUntil",
		"stats.Accumulator.Mean",
		"sim.Mailbox.Put",
		"sim.Mailbox.GetTimeout", // a closure inside it, quoted brackets in its shape
		"gamma.Machine.Run",
		"obs.Sampler.Sample",
		"core.bucketOf",
	} {
		if !linked[k] {
			t.Errorf("%s not linked", k)
		}
	}
	// Data symbols, undefined symbols and other modules are not functions
	// of this module.
	for _, k := range []string{"sim.Stray", "sim.Unresolved", "sim..dict", "sim.", "fmt.Sprintf"} {
		if linked[k] {
			t.Errorf("%s linked", k)
		}
	}
}

func TestCheck(t *testing.T) {
	linked := map[string]bool{}
	addNM(linked, nmOutput, "repro/internal/")
	decls := []decl{
		{key: "sim.Engine.RunUntil", pos: "a.go:1"},
		{key: "sim.Mailbox.Put", pos: "a.go:2"},
		{key: "sim.Mailbox.Close", pos: "a.go:3"}, // unlinked generic method
		{key: "sim.Engine.Run", pos: "a.go:4"},    // unlinked, allowlisted
		{key: "gamma.Machine.Run", pos: "b.go:1"},
		{key: "gamma.LoadTable", pos: "b.go:2"}, // unlinked
	}
	allow := map[string]string{
		"sim.Engine.Run":      "test driver",
		"sim.Engine.RunUntil": "stale: a binary links it",
		"hw.Disk.Read":        "stale: no longer declared",
	}
	unreached, stale := check(decls, linked, allow)
	var got []string
	for _, d := range unreached {
		got = append(got, d.pos+" "+d.key)
	}
	if want := []string{"a.go:3 sim.Mailbox.Close", "b.go:2 gamma.LoadTable"}; !reflect.DeepEqual(got, want) {
		t.Errorf("unreached = %q, want %q", got, want)
	}
	if want := []string{"hw.Disk.Read is not declared", "sim.Engine.RunUntil is linked"}; !reflect.DeepEqual(stale, want) {
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

// declared keys the module's own declarations as the symbols name them:
// a generic type's methods by the type's name, pointer and value receivers
// alike, and nothing from this tool's directory or test files.
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
	if pos := keys["buffer.referencePool.ReadHeat"]; pos != "" {
		t.Errorf("test-only buffer.referencePool.ReadHeat declared at %s", pos)
	}
	for k := range keys {
		if strings.HasPrefix(k, "tools/") || strings.HasSuffix(k, ".init") {
			t.Errorf("%s declared", k)
		}
	}
}
