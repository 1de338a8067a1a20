package repro

import (
	"go/ast"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// bodyAllowlist names the pairs of functions whose bodies may stay
// written twice, each with its reason. Keys are the pair as the test
// names it, "pkg.Func = pkg.Type.Method". At most 2 entries, and a test is not a reason: a copy kept
// for a test belongs in the test's own file.
var bodyAllowlist = map[string]string{}

// minBodyStmts is the size from which two equal bodies are one concept
// written twice rather than an idiom (a getter, a guard and a return).
const minBodyStmts = 3

// TestNoFunctionWrittenTwice is decision 7's "a path is written once"
// for code: no two non-test functions of minBodyStmts or more top-level
// statements have the same body once their receiver and parameter names
// are renamed by position. Bodies compare as token streams: layout and
// comments do not matter, and every other name compares by spelling.
func TestNoFunctionWrittenTwice(t *testing.T) {
	for k, reason := range bodyAllowlist {
		if strings.Contains(strings.ToLower(reason), "test") {
			t.Errorf("bodyAllowlist[%s]: a test is not a reason to keep a second copy", k)
		}
	}
	if len(bodyAllowlist) > 2 {
		t.Errorf("bodyAllowlist has %d entries; the cap is 2", len(bodyAllowlist))
	}

	r := loadRepo(t)
	type fn struct{ name, at string }
	first := make(map[string]fn)     // body key → first function with it
	twice := make(map[string]string) // pair → where its two bodies are
	funcs := 0
	for _, f := range r.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || len(fd.Body.List) < minBodyStmts {
				continue
			}
			funcs++
			this := fn{f.Name.Name + "." + funcName(fd), r.fset.Position(fd.Pos()).String()}
			key := bodyKey(t, r, fd)
			if other, ok := first[key]; ok {
				twice[other.name+" = "+this.name] = other.at + ", " + this.at
			} else {
				first[key] = this
			}
		}
	}
	if funcs < 500 {
		t.Fatalf("found only %d functions of %d+ statements: the walk is broken", funcs, minBodyStmts)
	}
	pairs := make([]string, 0, len(twice))
	for pair := range twice {
		pairs = append(pairs, pair)
	}
	sort.Strings(pairs)
	seen := make(map[string]bool)
	for _, pair := range pairs {
		if _, ok := bodyAllowlist[pair]; ok {
			seen[pair] = true
			continue
		}
		t.Errorf("%s (%s): the same body written twice; keep one and call it", pair, twice[pair])
	}
	for k := range bodyAllowlist {
		if !seen[k] {
			t.Errorf("bodyAllowlist names %s, which are no longer the same body", k)
		}
	}
}

// funcName is fd as Func or Type.Method.
func funcName(fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		typ := fd.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		switch x := typ.(type) {
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		}
		if id, ok := typ.(*ast.Ident); ok {
			name = id.Name + "." + name
		}
	}
	return name
}

// bodyKey is fd's body as a token stream in which every use of the
// receiver or a parameter reads $k, k its position in the signature.
func bodyKey(t *testing.T, r *repo, fd *ast.FuncDecl) string {
	t.Helper()
	param := make(map[token.Pos]int) // declaring ident → position
	for _, fields := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if fields == nil {
			continue
		}
		for _, field := range fields.List {
			for _, id := range field.Names {
				param[id.Pos()] = len(param)
			}
		}
	}
	file := r.fset.File(fd.Body.Pos())
	start := file.Offset(fd.Body.Lbrace)
	renamed := make(map[int]int) // body offset of a use → position
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := r.info.Uses[id].(*types.Var); ok {
				if k, ok := param[v.Pos()]; ok {
					renamed[file.Offset(id.Pos())-start] = k
				}
			}
		}
		return true
	})
	src, err := os.ReadFile(file.Name())
	if err != nil {
		t.Fatal(err)
	}
	body := src[start : file.Offset(fd.Body.Rbrace)+1]
	var s scanner.Scanner
	bf := token.NewFileSet().AddFile("", -1, len(body))
	s.Init(bf, body, nil, 0)
	var key strings.Builder
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return key.String()
		}
		switch k, ok := renamed[bf.Offset(pos)]; {
		case tok == token.IDENT && ok:
			key.WriteString("$" + strconv.Itoa(k))
		case tok == token.SEMICOLON || lit == "":
			key.WriteString(tok.String())
		default:
			key.WriteString(lit)
		}
		key.WriteByte(' ')
	}
}
