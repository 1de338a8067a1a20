package repro

import (
	"go/types"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers under internal/ that no
// non-test file uses and that stay anyway: helpers that the tests of
// OTHER packages call, so they cannot be unexported. At most 6 entries,
// each with its reason.
var exportAllowlist = map[string]string{
	"loraphy.Params.MustAirtime": "the test buses of core, baseline, reactive, icn and slotted price a frame with it",
	"faults.Plan.LastFlapEnd":    "netsim's chaos suite waits out a plan's last flap with it",
}

// stdInterfaceMethods are the method names of the standard-library
// interfaces a type in this repo may satisfy without any file naming the
// method: error, fmt.Stringer, json.Marshaler/Unmarshaler, io.WriterTo,
// sort.Interface, heap.Interface, http.Handler.
var stdInterfaceMethods = []string{
	"Error", "String", "MarshalJSON", "UnmarshalJSON", "WriteTo",
	"Len", "Less", "Swap", "Push", "Pop", "ServeHTTP",
}

// TestEveryExportIsReached is decision 7 for code, as
// TestEveryOptionHasASetter is for options: every exported package-level
// func, method, type, const and var under internal/ is used by at least
// one non-test file, or is in exportAllowlist with its reason. A method
// is also reached when its name belongs to an interface declared in the
// repo or to one of stdInterfaceMethods. A test alone does not keep an
// export alive.
func TestEveryExportIsReached(t *testing.T) {
	r := loadRepo(t)

	used := make(map[types.Object]bool)
	for _, obj := range r.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		used[obj] = true
	}
	ifaceMethod := make(map[string]bool)
	for _, m := range stdInterfaceMethods {
		ifaceMethod[m] = true
	}
	for _, pkg := range r.pkgs {
		for _, name := range pkg.Scope().Names() {
			if it, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceMethod[it.Method(i).Name()] = true
				}
			}
		}
	}

	var unreached []string
	seen := make(map[string]bool)
	exports := 0
	check := func(key string, obj types.Object, reached bool) {
		exports++
		_, allowed := exportAllowlist[key]
		switch {
		case allowed:
			seen[key] = true
			if reached {
				t.Errorf("%s is used by a non-test file now: drop it from exportAllowlist", key)
			}
		case !reached:
			unreached = append(unreached, key+" ("+r.fset.Position(obj.Pos()).String()+")")
		}
	}
	for path, pkg := range r.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			check(pkg.Name()+"."+name, obj, used[obj])
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					check(pkg.Name()+"."+name+"."+m.Name(), m, used[m] || ifaceMethod[m.Name()])
				}
			}
		}
	}
	if exports < 500 {
		t.Fatalf("found only %d exports under internal/: the walk is broken", exports)
	}
	sort.Strings(unreached)
	for _, k := range unreached {
		t.Errorf("%s is used by no non-test file: delete it, unexport it, or allowlist it with a reason", k)
	}
	for k := range exportAllowlist {
		if !seen[k] {
			t.Errorf("exportAllowlist names %s, which no longer exists", k)
		}
	}
	if len(exportAllowlist) > 6 {
		t.Errorf("exportAllowlist has %d entries; the cap is 6", len(exportAllowlist))
	}
}
