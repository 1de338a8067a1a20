package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestEveryFuzzTargetRunsInCI keeps CI's fuzz job in step with the fuzz
// targets: every func Fuzz* in a _test.go file has a
// `go test -run '^$' -fuzz '^Name$' … ./<pkg>` line in
// .github/workflows/ci.yml's fuzz job, every such line names a target
// that exists in that package, and the job's step name ("N targets")
// counts them.
func TestEveryFuzzTargetRunsInCI(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)
	have := make(map[string]bool) // "./pkg FuzzName"
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			have["./"+filepath.ToSlash(filepath.Dir(path))+" "+string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 20 when this guard was written; losing a package to a broken walk shows.
	if len(have) < 20 {
		t.Fatalf("found only %d fuzz targets: the walk is broken", len(have))
	}

	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	job := regexp.MustCompile(`(?ms)^  fuzz:\n(.*?)(?:^  \S|\z)`).FindSubmatch(ci)
	if job == nil {
		t.Fatal("ci.yml has no fuzz job")
	}
	run := regexp.MustCompile(`go test -run '\^\$' -fuzz '\^(Fuzz\w+)\$' .*?(\./\S+)`)
	ran := make(map[string]bool)
	for _, m := range run.FindAllSubmatch(job[1], -1) {
		ran[string(m[2])+" "+string(m[1])] = true
	}
	for _, k := range metrics.SortedKeys(have) {
		if !ran[k] {
			t.Errorf("%s has no -fuzz line in ci.yml's fuzz job", k)
		}
	}
	for _, k := range metrics.SortedKeys(ran) {
		if !have[k] {
			t.Errorf("ci.yml fuzzes %s, which does not exist", k)
		}
	}
	step := regexp.MustCompile(`name: fuzz \((\d+) targets`).FindSubmatch(job[1])
	if step == nil {
		t.Fatal("the fuzz job's step name does not count its targets")
	}
	if n, _ := strconv.Atoi(string(step[1])); n != len(ran) {
		t.Errorf("the fuzz step is named for %d targets, it runs %d", n, len(ran))
	}
}
