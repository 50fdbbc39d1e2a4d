// Command unreached fails when production code under internal/ is linked by
// no binary.
//
// It builds every main package of the module (cmd/*, examples/*) and the
// bench module with inlining off, so that a called function keeps its own
// symbol, and reads the linked function symbols with go tool nm. It then
// lists every function declared outside _test.go files under internal/ and
// reports each one that no binary links, unless allowlist.txt names it with
// a reason. An allowlist entry that is linked again, or names no declared
// function, is reported too, so the list cannot go stale.
//
// Run it from the module root:
//
//	go run ./internal/tools/unreached
package main

import (
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
	"strings"
)

//go:embed allowlist.txt
var allowlistText string

// selfDir is this tool's directory relative to the module root; its own
// functions are linked by no binary and are not checked.
const selfDir = "internal/tools/unreached"

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
	linked, nbin, err := linkedSymbols(root, modPath)
	if err != nil {
		return err
	}
	unreached, stale := check(decls, linked, allow)
	for _, d := range unreached {
		fmt.Printf("%s: %s is linked by no binary\n", d.pos, d.key)
	}
	for _, s := range stale {
		fmt.Printf("allowlist.txt: %s\n", s)
	}
	if len(unreached)+len(stale) > 0 {
		return fmt.Errorf("%d unreached functions, %d stale allowlist entries", len(unreached), len(stale))
	}
	fmt.Printf("unreached: %d binaries link every function under internal/ but the %d allowlisted\n", nbin, len(allow))
	return nil
}

// decl is one function or method declared in production code. Its key is
// the package path below internal/, then the receiver's type name for a
// method, then the function name: "sim.Engine.Run", "rng.New".
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
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			key := filepath.ToSlash(pkg) + "."
			if fn.Recv != nil {
				key += recvTypeName(fn.Recv.List[0].Type) + "."
			}
			p := fset.Position(fn.Pos())
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

// linkedSymbols builds the module's main packages and the bench module with
// inlining off into a temporary directory and returns the keys of every
// internal function their binaries link, and how many binaries it read.
func linkedSymbols(root, modPath string) (map[string]bool, int, error) {
	tmp, err := os.MkdirTemp("", "unreached")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(tmp)

	out, err := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...").Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go list: %w", err)
	}
	var mains []string
	for _, p := range strings.Fields(string(out)) {
		if p != modPath+"/"+selfDir {
			mains = append(mains, p)
		}
	}
	if len(mains) == 0 {
		return nil, 0, errors.New("no main packages found")
	}
	builds := []*exec.Cmd{
		exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", tmp + string(filepath.Separator)}, mains...)...),
		exec.Command("go", "build", "-gcflags=all=-l", "-o", filepath.Join(tmp, "bench"), "."),
	}
	builds[1].Dir = filepath.Join(root, "bench")
	for _, c := range builds {
		if msg, err := c.CombinedOutput(); err != nil {
			return nil, 0, fmt.Errorf("%s: %v\n%s", strings.Join(c.Args, " "), err, msg)
		}
	}

	bins, err := os.ReadDir(tmp)
	if err != nil {
		return nil, 0, err
	}
	linked := map[string]bool{}
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(tmp, b.Name())).Output()
		if err != nil {
			return nil, 0, fmt.Errorf("go tool nm %s: %w", b.Name(), err)
		}
		addNM(linked, string(out), modPath+"/internal/")
	}
	return linked, len(bins), nil
}

// addNM adds the keys of every text symbol under prefix in go tool nm's
// output ("address type name"; a name may hold spaces) to linked.
func addNM(linked map[string]bool, nm, prefix string) {
	for _, line := range strings.Split(nm, "\n") {
		f := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") || !strings.HasPrefix(f[2], prefix) {
			continue
		}
		for _, k := range symbolKeys(strings.TrimPrefix(f[2], prefix)) {
			linked[k] = true
		}
	}
}

// symbolKeys gives the declaration keys a linked symbol, its package path
// below internal/ included, can stand for. Type arguments are dropped, so a
// generic method named by its shape,
//
//	sim.(*Mailbox[go.shape.struct { repro/internal/exec.x int }]).Put,
//
// gives sim.Mailbox.Put. A pointer or value receiver gives the same key. A
// closure (.func1, .gowrap2, a -fm method value) stands for the function it
// is declared in. Since a symbol's first two name parts are either a type
// and a method or a function and its closure, both readings are returned;
// a function and a type never share a name in one package, so only the
// right one can match a declaration.
func symbolKeys(sym string) []string {
	sym = dropBrackets(sym)
	dot := strings.IndexByte(sym, '.')
	if dot < 0 {
		return nil
	}
	pkg, name := sym[:dot], sym[dot+1:]
	if strings.HasPrefix(name, "(") {
		name = strings.Replace(strings.TrimPrefix(strings.TrimPrefix(name, "("), "*"), ")", "", 1)
	}
	parts := strings.Split(name, ".")
	for i, p := range parts {
		parts[i], _, _ = strings.Cut(p, "-")
	}
	keys := []string{pkg + "." + parts[0]}
	if len(parts) > 1 {
		keys = append(keys, pkg+"."+parts[0]+"."+parts[1])
	}
	return keys
}

// dropBrackets removes every bracketed type-argument list, nested brackets
// and quoted struct tags inside it included.
func dropBrackets(s string) string {
	var b strings.Builder
	depth := 0
	quoted := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quoted:
			if c == '\\' {
				i++
			} else if c == '"' {
				quoted = false
			}
		case depth > 0 && c == '"':
			quoted = true
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// check returns the declarations that no binary links and the allowlist
// does not name, and the allowlist entries that are linked or name no
// declaration.
func check(decls []decl, linked map[string]bool, allow map[string]string) (unreached []decl, stale []string) {
	isDeclared := map[string]bool{}
	for _, d := range decls {
		isDeclared[d.key] = true
		if !linked[d.key] && allow[d.key] == "" {
			unreached = append(unreached, d)
		}
	}
	for k := range allow {
		switch {
		case !isDeclared[k]:
			stale = append(stale, k+" is not declared")
		case linked[k]:
			stale = append(stale, k+" is linked")
		}
	}
	sort.Strings(stale)
	return unreached, stale
}
