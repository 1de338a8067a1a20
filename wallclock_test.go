package repro

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// wallClockAllowlist names the non-test paths under internal/ (a file,
// or a package directory) that may read the wall clock, each with its
// reason. Everything else under internal/ is model code: it runs on the
// time its host hands it, so a run is a function of its inputs and seed.
var wallClockAllowlist = map[string]string{
	"internal/citysim/citysim.go": "Stats.Wall times Run for the report, outside the digest",
	"internal/citysim/shard.go":   "Stats.ShardBusy and BarrierWait, and await's spin before it parks",
	"internal/livenet":            "the wall-clock host: its clock and timers are the wall's",
	"internal/gateway":            "real HTTP uplinks, WAL compaction timings and the paced load driver",
}

// wallClockFuncs are the time package's functions that read or wait on
// the wall clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "AfterFunc": true}

// TestNoWallClockInModel fails on a use of time.Now, time.Since or
// time.AfterFunc in a non-test file under internal/ outside
// wallClockAllowlist, and on an allowlist entry that no longer reads the
// wall clock. cmd/ and bench/ are programs and may.
func TestNoWallClockInModel(t *testing.T) {
	r := loadRepo(t)
	var sites []string
	used := make(map[string]bool)
	for id, obj := range r.info.Uses {
		if obj.Pkg() == nil || obj.Pkg().Path() != "time" || !wallClockFuncs[obj.Name()] {
			continue
		}
		pos := r.fset.Position(id.Pos())
		rel := filepath.ToSlash(pos.Filename)
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		if key, ok := allowedWallClock(rel); ok {
			used[key] = true
			continue
		}
		sites = append(sites, pos.String()+": time."+obj.Name())
	}
	sort.Strings(sites)
	t.Logf("wall-clock call sites under internal/ outside wallClockAllowlist: %d", len(sites))
	for _, s := range sites {
		t.Errorf("%s reads the wall clock in model code: take the time from the host's Env or scheduler", s)
	}
	for key := range wallClockAllowlist {
		if !used[key] {
			t.Errorf("wallClockAllowlist names %s, which reads no wall clock now: drop it", key)
		}
	}
}

// allowedWallClock returns the wallClockAllowlist entry that covers the
// file rel: the file itself or its directory.
func allowedWallClock(rel string) (string, bool) {
	for _, key := range []string{rel, filepath.ToSlash(filepath.Dir(rel))} {
		if _, ok := wallClockAllowlist[key]; ok {
			return key, true
		}
	}
	return "", false
}
