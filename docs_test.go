package repro

import (
	"encoding/json"
	"go/ast"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// liveDocs are the documents whose names TestDocsNameLiveCode holds to
// the code. CHANGES.md is a history of names that went, so only its
// pointers into DESIGN are checked.
var liveDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	fenceRE    = regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```")
	spanRE     = regexp.MustCompile("`([^`]+)`")
	qualRE     = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./*(])([a-z][a-z0-9]*)\.([A-Za-z_][A-Za-z0-9_]*\*?)(?:\.([A-Za-z_][A-Za-z0-9_]*\*?))?`)
	pathRE     = regexp.MustCompile(`(?:^|[\s(=])\.?/?((?:internal|cmd|examples|scripts)/[A-Za-z0-9_./*-]*)`)
	testNameRE = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*`)
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	pointerRE  = regexp.MustCompile(`DESIGN(?:\.md)?(?:'s|,)?\s+"([^"]+)"`)
	changesRE  = regexp.MustCompile(`^(?:- \*\*)?PR [0-9]+`)
)

// TestDocsNameLiveCode fails on a name the documents cite that the code
// no longer has: a backticked pkg.Name[.Name] of a repo package (or a
// BENCHMARK.json metric), a backticked internal/, cmd/, examples/ or
// scripts/ path, a -flag after a program's name, a Test/Fuzz/Benchmark
// name (as a -run prefix), and a DESIGN "…" pointer to a heading or lead.
func TestDocsNameLiveCode(t *testing.T) {
	r := loadRepo(t)
	pkgs := make(map[string]*types.Package)
	for _, pkg := range r.pkgs {
		if pkg.Name() != "main" {
			pkgs[pkg.Name()] = pkg
		}
	}
	metrics := benchMetrics(t)
	flags := programFlags(r)
	tests := testFuncs(t)
	heads := designTargets(t)
	if len(pkgs) < 20 || len(metrics) < 50 || len(flags) < 8 || len(tests) < 300 || len(heads) < 10 {
		t.Fatalf("the walk is broken: %d packages, %d metrics, %d programs, %d tests, %d DESIGN targets",
			len(pkgs), len(metrics), len(flags), len(tests), len(heads))
	}

	for _, doc := range append(liveDocs, "CHANGES.md") {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		for _, m := range pointerRE.FindAllStringSubmatch(text, -1) {
			if p := strings.Join(strings.Fields(m[1]), " "); !heads[p] {
				t.Errorf("%s: DESIGN has no heading or lead %q", doc, p)
			}
		}
		if doc == "CHANGES.md" {
			continue
		}
		fences := strings.Join(fenceRE.FindAllString(text, -1), "\n")
		var spans []string
		for _, m := range spanRE.FindAllStringSubmatch(fenceRE.ReplaceAllString(text, ""), -1) {
			spans = append(spans, strings.Join(strings.Fields(m[1]), " "))
		}
		for _, s := range spans {
			for _, m := range qualRE.FindAllStringSubmatch(s, -1) {
				if pkg := pkgs[m[1]]; pkg != nil && m[2] != "go" && !resolves(pkg, m[2], m[3], metrics) {
					t.Errorf("%s: `%s` names nothing in the code", doc, strings.TrimSuffix(m[1]+"."+m[2]+"."+m[3], "."))
				}
			}
		}
		for _, s := range append(spans, strings.Split(fences, "\n")...) {
			for _, m := range pathRE.FindAllStringSubmatch(s, -1) {
				p := strings.TrimRight(strings.TrimSuffix(m[1], "..."), "./")
				if dir, ident, ok := strings.Cut(p, "."); ok && ident != "" && ident[0] >= 'A' && ident[0] <= 'Z' {
					p = dir // internal/core.Node: a package and one of its names
				}
				if hits, _ := filepath.Glob(p); len(hits) == 0 {
					t.Errorf("%s: path %s does not exist", doc, m[1])
				}
			}
			checkFlags(t, doc, s, flags)
		}
		for _, name := range testNameRE.FindAllString(text, -1) {
			if !tests.hasPrefix(name) {
				t.Errorf("%s: no test function is named %s…", doc, name)
			}
		}
	}
}

// maxChangesEntry bounds one PR's CHANGES.md entry: what changed, the
// claim and its result, the new tests and the counts line. Protocol and
// profile detail lives in DESIGN's "Measured" sections.
const maxChangesEntry = 1100

// TestChangesEntriesStayShort fails on a CHANGES.md PR entry longer than
// maxChangesEntry bytes. FOUND and MENDED lines are lines of their own
// and are not counted.
func TestChangesEntriesStayShort(t *testing.T) {
	b, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for i, line := range strings.Split(string(b), "\n") {
		pr := changesRE.FindString(line)
		if pr == "" {
			continue
		}
		entries++
		if len(line) > maxChangesEntry {
			t.Errorf("CHANGES.md:%d: the %s entry is %d B, over %d", i+1, strings.TrimPrefix(pr, "- **"), len(line), maxChangesEntry)
		}
	}
	if entries < 40 {
		t.Fatalf("found only %d PR entries: the walk is broken", entries)
	}
}

// resolves reports whether pkg.name[.member] names something in the
// code, or else a BENCHMARK.json metric. Without a member, name is a
// package-level object, or a field or method of one of the package's
// types (`citysim.runWindows`); with one, it is a field or method of
// name's type. Exported or not; a trailing * matches a prefix.
func resolves(pkg *types.Package, name, member string, metrics []string) bool {
	full := pkg.Name() + "." + name
	if member != "" {
		full += "." + member
	}
	for _, m := range metrics {
		if matches(m, full) {
			return true
		}
	}
	for _, n := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(n)
		if member == "" && matches(n, name) {
			return true
		}
		_, isType := obj.(*types.TypeName)
		switch {
		case member == "" && isType:
			if hasMember(obj.Type(), name) {
				return true
			}
		case member != "" && matches(n, name):
			if hasMember(obj.Type(), member) {
				return true
			}
		}
	}
	return false
}

// hasMember reports whether T or *T has a method, or T a field, that
// matches pattern.
func hasMember(T types.Type, pattern string) bool {
	ms := types.NewMethodSet(types.NewPointer(T))
	for i := 0; i < ms.Len(); i++ {
		if matches(ms.At(i).Obj().Name(), pattern) {
			return true
		}
	}
	if st, ok := T.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if matches(st.Field(i).Name(), pattern) {
				return true
			}
		}
	}
	return false
}

// matches is name == pattern, or a prefix match when pattern ends in *.
func matches(name, pattern string) bool {
	if p, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(name, p)
	}
	return name == pattern
}

// checkFlags checks every -flag that follows a program's name in s, up to
// the end of that command (a pipe, ;, && or #).
func checkFlags(t *testing.T, doc, s string, flags map[string]map[string]bool) {
	var prog string
	for _, tok := range strings.Fields(s) {
		switch {
		case tok == "|" || tok == ";" || tok == "&&" || strings.HasPrefix(tok, "#"):
			prog = ""
		case flags[filepath.Base(tok)] != nil:
			prog = filepath.Base(tok)
		case prog != "" && len(tok) > 1 && tok[0] == '-' && tok[1] != '-' && (tok[1] < '0' || tok[1] > '9'):
			name, _, _ := strings.Cut(tok[1:], "=")
			if name = strings.TrimRight(name, ".,;:)`'\""); !flags[prog][name] {
				t.Errorf("%s: %s has no flag -%s (in %q)", doc, prog, name, s)
			}
		}
	}
}

// programFlags maps each program under cmd/ and examples/ to the flag
// names its non-test files define with the flag package.
func programFlags(r *repo) map[string]map[string]bool {
	flags := make(map[string]map[string]bool)
	for _, f := range r.files {
		dir := filepath.Dir(r.fset.Position(f.Pos()).Filename)
		if top := strings.Split(filepath.ToSlash(dir), "/")[0]; top != "cmd" && top != "examples" {
			continue
		}
		prog := filepath.Base(dir)
		if flags[prog] == nil {
			flags[prog] = make(map[string]bool)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			for _, a := range call.Args {
				if lit, ok := a.(*ast.BasicLit); ok {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						flags[prog][name] = true
					}
					break
				}
			}
			return true
		})
	}
	return flags
}

// benchMetrics returns every metric name BENCHMARK.json declares.
func benchMetrics(t *testing.T) []string {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		names = append(names, m.Name)
	}
	return names
}

// testNames is the sorted set of Test/Fuzz/Benchmark functions in the
// repository's test files, bench/ included.
type testNames []string

func (ts testNames) hasPrefix(name string) bool {
	i := sort.SearchStrings(ts, name)
	return i < len(ts) && strings.HasPrefix(ts[i], name)
}

func testFuncs(t *testing.T) testNames {
	var ts testNames
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, build caches
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		for _, m := range testFuncRE.FindAllSubmatch(b, -1) {
			ts = append(ts, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(ts)
	return ts
}

// designTargets returns DESIGN.md's headings, each also without a
// trailing parenthesis, and its leads: the bold or italic text that opens
// a line or a bullet, without its closing period or colon.
func designTargets(t *testing.T) map[string]bool {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	heads := make(map[string]bool)
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if h, ok := strings.CutPrefix(line, "#"); ok {
			h = strings.TrimSpace(strings.TrimLeft(h, "#"))
			heads[h] = true
			if i := strings.Index(h, " ("); i > 0 {
				heads[h[:i]] = true
			}
			continue
		}
		line = strings.TrimPrefix(strings.TrimPrefix(line, "- "), "* ")
		for _, mark := range []string{"**", "*"} {
			if rest, ok := strings.CutPrefix(line, mark); ok {
				if lead, _, ok := strings.Cut(rest, mark); ok {
					heads[strings.TrimRight(lead, ".:")] = true
				}
				break
			}
		}
	}
	return heads
}
