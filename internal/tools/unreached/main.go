// Command unreached fails when production code under internal/ runs in no
// run of the module's binaries.
//
// It builds every main package of the module (cmd/*, examples/*) and the
// bench module with coverage, makes the runs listed in invocations under
// one GOCOVERDIR and reads the functions that ran with go tool covdata
// func. It then lists every function declared outside _test.go files under
// internal/ and reports each one that no run executes, unless allowlist.txt
// names it with a reason. A function no binary links is absent from the
// coverage output and counts as not run. An allowlist entry that runs
// again, or names no declared function, is reported too, so the list
// cannot go stale.
//
// Run it from the module root:
//
//	go run ./internal/tools/unreached
package main

import (
	"bytes"
	_ "embed"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

//go:embed allowlist.txt
var allowlistText string

// selfDir is this tool's directory relative to the module root; its own
// functions run in no binary and are not checked.
const selfDir = "internal/tools/unreached"

// invocations are the runs the census makes: a binary built from the
// module, then its arguments. $TMP in an argument stands for the census's
// temporary directory, where the runs write their files. They are the CI
// smoke runs, the flag forms the goldens pin, every example, magicplan's
// five mixes and two bench workloads.
var invocations = [][]string{
	{"declusterbench", "-scale", "quick", "-fig", "8a", "-mpl", "1,4", "-seed", "7", "-json", "$TMP/closed.json", "-manifest", "$TMP/manifest.json"},
	{"declusterbench", "-scale", "quick", "-fig", "8a", "-mpl", "1,4", "-seed", "7", "-compare", "$TMP/closed.json", "-tolerance", "0"},
	{"declusterbench", "-scale", "quick", "-fig", "8a", "-mpl", "1,4", "-seed", "7", "-detail", "-node-stats", "-plot"},
	{"declusterbench", "-scale", "quick", "-fig", "8a", "-mpl", "1,4", "-seed", "7", "-ts-dir", "$TMP/cts"},
	{"declusterbench", "-scale", "quick", "-fig", "8a", "-mpl", "1,4", "-seed", "7", "-heatmap", "-heatmap-dir", "$TMP/heat"},
	{"declusterbench", "-scale", "quick", "-fig", "8a", "-mpl", "4", "-kill-disk", "1@2ms"},
	{"declusterbench", "-scale", "quick", "-fig", "8a", "-mpl", "1,4", "-kill-node", "1@2ms,2@3ms+20ms", "-csv"},
	{"declusterbench", "-scale", "quick", "-fig", "8a", "-mpl", "4", "-mtbf", "500ms"},
	{"declusterbench", "-scale", "quick", "-fig", "8a", "-mpl", "4", "-faults", "0,1,2"},
	{"declusterbench", "-open", "-scale", "quick", "-lambda", "100,400", "-measure", "150", "-warmup", "20", "-seed", "7", "-ts-window", "250ms", "-ts-dir", "$TMP/ts", "-metrics-addr", "127.0.0.1:0", "-metrics-linger", "1ns"},
	{"declusterbench", "-open", "-scale", "quick", "-lambda", "100,2000", "-measure", "150", "-warmup", "20", "-seed", "7", "-detail", "-heatmap", "-ts-window", "10ms"},
	{"declusterbench", "-open", "-scale", "quick", "-card", "2000", "-lambda", "200", "-measure", "100", "-arrival", "bursty"},
	{"declusterbench", "-open", "-scale", "quick", "-card", "2000", "-lambda", "200", "-measure", "100", "-arrival", "diurnal"},
	{"declusterbench", "-share", "-scale", "quick", "-mpl", "8", "-seed", "7"},
	{"declusterbench", "-share", "-scale", "quick", "-mpl", "8", "-seed", "7", "-kill-disk", "1@2ms"},
	{"declusterbench", "-elastic", "-scale", "quick", "-card", "1000", "-procs", "4", "-lambda", "100", "-measure", "300", "-warmup", "5", "-seed", "7", "-join-at", "200ms", "-leave-at", "900ms", "-kill-node", "1@50ms"},
	{"declusterbench", "-elastic", "-scale", "quick", "-card", "1000", "-procs", "4", "-lambda", "100", "-measure", "300", "-warmup", "5", "-seed", "7", "-join-at", "200ms", "-leave-at", "900ms", "-heatmap", "-kill-disk", "2@50ms+10ms", "-ts-dir", "$TMP/elastic-ts"},
	{"declusterbench", "-scale", "quick", "-fig", "none", "-scaleout"},
	{"querytrace", "-critpath", "-frags", "-trace-out", "$TMP/trace.json", "-trace-jsonl", "$TMP/trace.jsonl"},
	{"querytrace", "-strategy", "hash", "-quiet"},
	{"magicplan", "-mix", "low-low", "-build"}, {"magicplan", "-mix", "low-low-wider", "-build"},
	{"magicplan", "-mix", "low-moderate", "-build"}, {"magicplan", "-mix", "moderate-low", "-build"},
	{"magicplan", "-mix", "moderate-moderate", "-build"},
	{"berdwalkthrough"}, {"correlated"}, {"join"}, {"planner"}, {"quickstart"}, {"stockmarket"},
	{"bench", "-workload", "quick-campaign", "-seconds", "0", "-reps", "1", "-trace", "1"},
	{"bench", "-workload", "open-armed-8a", "-seconds", "0", "-reps", "1", "-trace", "1"},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(1)
	}
}

func run() error {
	allow, err := parseAllowlist(allowlistText)
	if err != nil {
		return err
	}
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Path}} {{.Dir}}").Output()
	if err != nil {
		return fmt.Errorf("go list -m: %w", err)
	}
	modPath, root, _ := strings.Cut(strings.TrimSpace(string(out)), " ")
	decls, err := declared(root)
	if err != nil {
		return err
	}
	ran, err := census(root, modPath)
	if err != nil {
		return err
	}
	unreached, stale := check(decls, ran, allow)
	for _, d := range unreached {
		fmt.Printf("%s: %s runs in no invocation\n", d.pos, d.key)
	}
	for _, s := range stale {
		fmt.Printf("allowlist.txt: %s\n", s)
	}
	if len(unreached)+len(stale) > 0 {
		return fmt.Errorf("%d unreached functions, %d stale allowlist entries", len(unreached), len(stale))
	}
	fmt.Printf("unreached: %d runs execute every function under internal/ but the %d allowlisted\n", len(invocations), len(allow))
	return nil
}

// decl is one function or method declared in production code. Its key is
// the package path below internal/, then the receiver's type name for a
// method, then the function name: "sim.Engine.Run", "rng.New". Its pos is
// the file below the module root and the line its body opens on, which is
// how go tool covdata names it: "internal/sim/engine.go:42".
type decl struct {
	key string
	pos string
}

// parseAllowlist reads one entry a line, "key reason", where the reason is
// required. Blank lines and lines starting with # are skipped.
func parseAllowlist(text string) (map[string]string, error) {
	allow := map[string]string{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("allowlist.txt:%d: %s has no reason", i+1, key)
		}
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("allowlist.txt:%d: %s listed twice", i+1, key)
		}
		allow[key] = strings.TrimSpace(reason)
	}
	return allow, nil
}

// declared lists the functions declared in the non-test Go files under
// root/internal that the current build context compiles, skipping init
// functions, blank names and this tool's own directory.
func declared(root string) ([]decl, error) {
	var decls []decl
	fset := token.NewFileSet()
	internal := filepath.Join(root, "internal")
	err := filepath.WalkDir(internal, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if d.Name() == "testdata" || filepath.ToSlash(rel) == selfDir {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, _ := filepath.Rel(internal, filepath.Dir(path))
		for _, x := range f.Decls {
			fn, ok := x.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			key := filepath.ToSlash(pkg) + "."
			if fn.Recv != nil {
				key += recvTypeName(fn.Recv.List[0].Type) + "."
			}
			p := fset.Position(fn.Body.Lbrace)
			decls = append(decls, decl{key: key + fn.Name.Name, pos: fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)})
		}
		return nil
	})
	return decls, err
}

// recvTypeName strips a receiver type down to its type name: *T, T[K] and
// *T[K, V] all give T.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		default:
			return e.(*ast.Ident).Name
		}
	}
}

// census builds the module's main packages and the bench module with
// coverage into a temporary directory, makes every run in invocations from
// the module root with one GOCOVERDIR, and returns the positions
// ("internal/sim/engine.go:42") of the internal functions that ran.
func census(root, modPath string) (map[string]bool, error) {
	tmp, err := os.MkdirTemp("", "unreached")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	out, err := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var mains []string
	for _, p := range strings.Fields(string(out)) {
		if p != modPath+"/"+selfDir {
			mains = append(mains, p)
		}
	}
	if len(mains) == 0 {
		return nil, errors.New("no main packages found")
	}
	// A binary writes its counters only when its main package is
	// instrumented too, so the whole module is; parseCovdata keeps internal/.
	cover := "-coverpkg=" + modPath + "/..."
	cmds := []*exec.Cmd{
		exec.Command("go", append([]string{"build", "-cover", cover, "-o", tmp + string(filepath.Separator)}, mains...)...),
		exec.Command("go", "build", "-cover", cover, "-o", filepath.Join(tmp, "bench"), "."),
	}
	cmds[1].Dir = filepath.Join(root, "bench")
	covDir := filepath.Join(tmp, "cover")
	if err := os.Mkdir(covDir, 0o755); err != nil {
		return nil, err
	}
	for _, inv := range invocations {
		c := exec.Command(filepath.Join(tmp, inv[0]))
		for _, a := range inv[1:] {
			c.Args = append(c.Args, strings.ReplaceAll(a, "$TMP", tmp))
		}
		c.Dir, c.Env = root, append(os.Environ(), "GOCOVERDIR="+covDir)
		cmds = append(cmds, c)
	}
	for _, c := range cmds {
		var stderr bytes.Buffer
		c.Stderr = &stderr
		if err := c.Run(); err != nil {
			return nil, fmt.Errorf("%s: %v\n%s", strings.Join(c.Args, " "), err, stderr.Bytes())
		}
	}
	out, err = exec.Command("go", "tool", "covdata", "func", "-i", covDir).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool covdata func: %w", err)
	}
	return parseCovdata(string(out), modPath+"/")
}

// parseCovdata returns the positions below the module root, "internal/"
// included, of every internal function with a non-zero percentage in go
// tool covdata func's output ("repro/internal/sim/engine.go:42:  Run  85.7%").
// Positions, not names, identify a function: the output names a method by
// its receiver without type arguments, or a generic type's method by its
// name alone.
func parseCovdata(text, prefix string) (map[string]bool, error) {
	ran := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(f[0], prefix+"internal/") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[len(f)-1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("covdata line %q: %w", line, err)
		}
		if pct > 0 {
			ran[strings.TrimSuffix(strings.TrimPrefix(f[0], prefix), ":")] = true
		}
	}
	return ran, nil
}

// check returns the declarations that no run executes and the allowlist
// does not name, and the allowlist entries that run or name no declaration.
// ran holds the positions of the functions that ran.
func check(decls []decl, ran map[string]bool, allow map[string]string) (unreached []decl, stale []string) {
	keyRan := map[string]bool{}
	for _, d := range decls {
		keyRan[d.key] = ran[d.pos]
		if !ran[d.pos] && allow[d.key] == "" {
			unreached = append(unreached, d)
		}
	}
	for k := range allow {
		r, isDeclared := keyRan[k]
		switch {
		case !isDeclared:
			stale = append(stale, k+" is not declared")
		case r:
			stale = append(stale, k+" is run")
		}
	}
	sort.Strings(stale)
	return unreached, stale
}
