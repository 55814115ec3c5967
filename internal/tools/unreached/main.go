// Command unreached fails when a function or method declared in this
// module's non-test library code is linked by no binary the module builds,
// unless allowlist.txt names it with a reason. It also fails on an
// allowlist line whose symbol is gone or is now linked, so the list only
// shrinks as callers appear.
//
// Usage, from the module root (`make unreached`):
//
//	go run ./internal/tools/unreached
//
// Every main package and the benchmark module are built with inlining off
// (-gcflags=all=-l), so a function the compiler would inline everywhere
// still leaves a symbol, and `go tool nm` lists what each binary links. A
// generic function counts as linked when any instantiation or dictionary
// of it is. A method that is never called but lets a type satisfy an
// interface in a type assertion also reads as unlinked (the linker keeps
// its name, not its body); such markers belong on the allowlist.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const allowlistPath = "internal/tools/unreached/allowlist.txt"

func main() {
	problems, err := check()
	if err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

func check() ([]string, error) {
	linked, err := linkedSymbols()
	if err != nil {
		return nil, err
	}
	declared, err := declaredFuncs()
	if err != nil {
		return nil, err
	}
	allowed, err := readAllowlist(allowlistPath)
	if err != nil {
		return nil, err
	}
	var problems []string
	for sym, pos := range declared {
		if !linked[sym] && !allowed[sym] {
			problems = append(problems, fmt.Sprintf("%s: %s is linked by no binary", pos, sym))
		}
	}
	for sym := range allowed {
		switch {
		case declared[sym] == "":
			problems = append(problems, fmt.Sprintf("%s: %s is no longer declared; drop its line", allowlistPath, sym))
		case linked[sym]:
			problems = append(problems, fmt.Sprintf("%s: %s is now linked; drop its line", allowlistPath, sym))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// linkedSymbols builds every binary into a temporary directory and returns
// the normalised names of the symbols they link.
func linkedSymbols() (map[string]bool, error) {
	dir, err := os.MkdirTemp("", "unreached")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, mod := range []string{".", "benchmark"} {
		if _, err := goCmd(mod, "build", "-gcflags=all=-l", "-o", dir+string(filepath.Separator), "./..."); err != nil {
			return nil, err
		}
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, bin := range bins {
		out, err := goCmd(".", "tool", "nm", filepath.Join(dir, bin.Name()))
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) >= 3 {
				linked[normalise(strings.Join(f[2:], " "))] = true
			}
		}
	}
	return linked, nil
}

// normalise folds a generic instantiation or dictionary symbol onto the
// name of its declaration: pkg.F[go.shape.int] and pkg..dict.F[int] both
// become pkg.F, and pkg.(*T[go.shape.int]).M becomes pkg.(*T).M.
func normalise(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return strings.Replace(b.String(), "..dict.", ".", 1)
}

// declaredFuncs maps the linker name of every func and method declared in
// the module's non-test, non-main files to its file:line.
func declaredFuncs() (map[string]string, error) {
	out, err := goCmd(".", "list", "-f", `{{.ImportPath}}|{{.Name}}|{{.Dir}}|{{join .GoFiles "|"}}`, "./...")
	if err != nil {
		return nil, err
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	declared := map[string]string{}
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Split(line, "|")
		if len(f) < 4 || f[1] == "main" {
			continue
		}
		for _, name := range f[3:] {
			file, err := parser.ParseFile(fset, filepath.Join(f[2], name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv == nil && fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				pos := fset.Position(fn.Pos())
				if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
					pos.Filename = rel
				}
				declared[symbol(f[0], fn)] = fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			}
		}
	}
	return declared, nil
}

// symbol spells a declaration the way `go tool nm` names it.
func symbol(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return pkg + "." + fn.Name.Name
	}
	typ, ptr := fn.Recv.List[0].Type, false
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	recv := typ.(*ast.Ident).Name
	if ptr {
		recv = "(*" + recv + ")"
	}
	return pkg + "." + recv + "." + fn.Name.Name
}

// readAllowlist reads "symbol reason..." lines; blank and # lines are
// skipped, and a line without a reason is an error.
func readAllowlist(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allowed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, sym)
		}
		allowed[sym] = true
	}
	return allowed, sc.Err()
}

func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s in %s: %w", strings.Join(args, " "), dir, err)
	}
	return string(out), nil
}
