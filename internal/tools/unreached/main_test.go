package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestSymbolMatchesNormalisedNm pins the two spellings the check compares:
// a declaration's symbol must equal the normalised `go tool nm` name of any
// instantiation, dictionary or wrapper the linker emits for it.
func TestSymbolMatchesNormalisedNm(t *testing.T) {
	src := `package p
func F() {}
func G[T any](T) {}
func (v V) M() {}
func (p *P) M() {}
func (s *S[T]) M() {}
func (s S2[K, V]) M() {}
`
	file, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	nm := []string{
		"x/p.F",
		"x/p.G[go.shape.int]",
		"x/p.V.M",
		"x/p.(*P).M",
		"x/p.(*S[go.shape.struct { A int }]).M",
		"x/p.S2[go.shape.string,go.shape.int].M",
	}
	for i, d := range file.Decls {
		if got, want := symbol("x/p", d.(*ast.FuncDecl)), normalise(nm[i]); got != want {
			t.Errorf("decl %d: symbol %q, normalised nm %q", i, got, want)
		}
	}
	if got := normalise("x/p..dict.G[int]"); got != "x/p.G" {
		t.Errorf("dictionary normalises to %q, want x/p.G", got)
	}
}
