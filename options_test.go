package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// optionAllowlist names the exported Config fields that no program sets
// and that stay anyway, each with the reason (DESIGN.md's options
// policy). Keys are package.Type.Field, resolved by type. It is a list of
// named exceptions, not a category: at most maxOptionAllowlist entries, and
// "tests set it" is not a reason — a bound only tests move is a constant.
var optionAllowlist = map[string]string{
	"citysim.Config.ExtraFrameLossRate": "the only input that reaches the LostRandom bucket bench/ reports, and the erasures that show counter-keyed draws are independent of the execution mode",
}

const maxOptionAllowlist = 4

// TestEveryOptionHasASetter keeps the options audit true: every exported
// field of every exported *Config struct under internal/ is set — by a
// keyed literal, an assignment, or its address handed to a flag — in some
// non-test file other than the
// one that defines it (cmd/, examples/, internal/, bench/, and the two
// public wrappers), or is in optionAllowlist with its reason. A test
// alone does not keep an option alive.
func TestEveryOptionHasASetter(t *testing.T) {
	if len(optionAllowlist) > maxOptionAllowlist {
		t.Errorf("optionAllowlist holds %d entries, at most %d named exceptions may stay", len(optionAllowlist), maxOptionAllowlist)
	}
	for k, reason := range optionAllowlist {
		if strings.Contains(strings.ToLower(reason), "test") {
			t.Errorf("optionAllowlist[%s]: %q — a test keeps no option alive; make the field a constant", k, reason)
		}
	}
	r := loadRepo(t)
	options := r.options()
	// scripts/counts.sh reads this line.
	t.Logf("exported Config fields under internal/: %d", len(options))
	// 92 at the last count; losing one package to a broken walk shows.
	if len(options) < 90 {
		t.Fatalf("found only %d Config fields under internal/: the walk is broken", len(options))
	}

	// The setters: keyed-literal keys and assignment targets that resolve
	// to one of those fields, outside its defining file.
	set := make(map[types.Object]bool)
	mark := func(id *ast.Ident) {
		obj := r.info.Uses[id]
		if o, ok := options[obj]; ok && r.fset.Position(id.Pos()).Filename != o.file {
			set[obj] = true
		}
	}
	for _, f := range r.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					mark(id)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						mark(sel.Sel)
					}
				}
			case *ast.UnaryExpr:
				// &cfg.Field handed to a writer such as flag.IntVar.
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					mark(sel.Sel)
				}
			}
			return true
		})
	}

	var unset []string
	used := make(map[string]bool)
	for obj, o := range options {
		_, allowed := optionAllowlist[o.key]
		switch {
		case allowed:
			used[o.key] = true
			if set[obj] {
				t.Errorf("%s is set by a program now: drop it from optionAllowlist", o.key)
			}
		case !set[obj]:
			unset = append(unset, o.key)
		}
	}
	sort.Strings(unset)
	for _, k := range unset {
		t.Errorf("%s has no setter in any program: make it a constant, or allowlist it with a reason", k)
	}
	for k := range optionAllowlist {
		if !used[k] {
			t.Errorf("optionAllowlist names %s, which no longer exists", k)
		}
	}
}

// TestEveryOptionIsRead is TestEveryOptionHasASetter's other half: every
// exported field of every exported *Config struct under internal/ is read
// by some non-test code other than its own type's withDefaults. A read is
// a selector use that is not an assignment target or an & operand (keyed
// literal keys are not selectors), so a field only written and defaulted
// is a knob nothing honours.
func TestEveryOptionIsRead(t *testing.T) {
	r := loadRepo(t)
	options := r.options()
	read := make(map[types.Object]bool)
	for _, f := range r.files {
		for _, d := range f.Decls {
			// defaulted is the Config whose withDefaults d is, if any.
			var defaulted types.Object
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "withDefaults" {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					defaulted = r.info.Uses[id]
				}
			}
			writes := make(map[*ast.SelectorExpr]bool)
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							writes[sel] = true
						}
					}
				case *ast.UnaryExpr:
					if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
						writes[sel] = true
					}
				case *ast.SelectorExpr:
					obj := r.info.Uses[n.Sel]
					if o, ok := options[obj]; ok && !writes[n] && o.owner != defaulted {
						read[obj] = true
					}
				}
				return true
			})
		}
	}
	var unread []string
	for obj, o := range options {
		if !read[obj] {
			unread = append(unread, o.key)
		}
	}
	sort.Strings(unread)
	for _, k := range unread {
		t.Errorf("%s is never read outside withDefaults: delete it", k)
	}
}

// option is one exported field of an exported Config struct under
// internal/: its package.Type.Field key, defining file and owning type.
type option struct {
	key, file string
	owner     types.Object
}

// options finds every exported field of every exported *Config struct
// under internal/, keyed by the field object.
func (r *repo) options() map[types.Object]option {
	options := make(map[types.Object]option)
	for path, pkg := range r.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !strings.HasSuffix(name, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					options[f] = option{pkg.Name() + "." + name + "." + f.Name(), r.fset.Position(f.Pos()).Filename, tn}
				}
			}
		}
	}
	return options
}

// repo type-checks the repository's packages from source — non-test
// files only, so a test never counts as a setter — and defers everything
// outside the module to the toolchain's importer.
type repo struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	info  *types.Info
	files []*ast.File
}

// loadRepo type-checks every package of the repository (internal/, cmd/,
// examples/, bench/, and the two public wrappers).
func loadRepo(t *testing.T) *repo {
	t.Helper()
	r := &repo{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		pkgs: make(map[string]*types.Package),
		info: &types.Info{Uses: make(map[*ast.Ident]types.Object)},
	}
	var dirs []string
	for _, pat := range []string{"internal/*", "cmd/*", "examples/*", "bench", "lorasim", "loramesher"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, m...)
	}
	for _, d := range dirs {
		if _, err := r.Import("repro/" + filepath.ToSlash(d)); err != nil {
			t.Fatalf("%s: %v", d, err)
		}
	}
	return r
}

func (r *repo) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, "repro/") {
		return r.std.Import(path)
	}
	if pkg, ok := r.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.FromSlash(strings.TrimPrefix(path, "repro/"))
	parsed, err := parser.ParseDir(r.fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, p := range parsed {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, os.ErrNotExist
	}
	pkg, err := (&types.Config{Importer: r}).Check(path, r.fset, files, r.info)
	if err != nil {
		return nil, err
	}
	r.pkgs[path] = pkg
	r.files = append(r.files, files...)
	return pkg, nil
}
