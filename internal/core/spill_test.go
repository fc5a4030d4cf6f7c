package core

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSpillKeepsBudgetedRunComplete: the budget that truncates an in-memory
// run (TestMemoryBudget) must NOT truncate a run armed with a spill dir —
// the engine goes out-of-core and finishes with identical results. This is
// the reachability pin for TruncateMemoryBudget: the reason only fires once
// the spill rung makes no progress.
func TestSpillKeepsBudgetedRunComplete(t *testing.T) {
	r := correlatedRelation(t, 80)
	want := Discover(r, Options{})
	got := Discover(r, Options{
		MaxMemoryBytes: 1,
		SpillDir:       filepath.Join(t.TempDir(), "spill"),
	})
	if got.Stats.Truncated {
		t.Fatalf("budgeted run truncated despite spill dir: %+v", got.Stats)
	}
	if got.Stats.SpillError != "" {
		t.Fatalf("SpillError = %q", got.Stats.SpillError)
	}
	if got.Stats.MemoryReleases == 0 {
		t.Error("budget never tripped — the run proves nothing")
	}
	if got.Stats.SpillEvictions == 0 {
		t.Error("nothing was spilled")
	}
	if !equalStrings(formatDeps(want), formatDeps(got)) {
		t.Fatal("out-of-core run changed the results")
	}
	assertWellFormed(t, r, got)
}

// TestSpillSteadyStateEvictions: a tiny checker cache with a spill dir and
// a budget that trips at every level spills the workers' caches at each
// barrier and reloads on demand, leaving results identical.
func TestSpillSteadyStateEvictions(t *testing.T) {
	r := correlatedRelation(t, 80)
	want := Discover(r, Options{})
	got := Discover(r, Options{
		IndexCacheSize: 2,
		MaxMemoryBytes: 1,
		SpillDir:       filepath.Join(t.TempDir(), "spill"),
	})
	if got.Stats.SpillEvictions == 0 || got.Stats.SpillReloads == 0 {
		t.Errorf("SpillStats = (%d, %d), want both > 0",
			got.Stats.SpillEvictions, got.Stats.SpillReloads)
	}
	if !equalStrings(formatDeps(want), formatDeps(got)) {
		t.Fatal("spilling changed the results")
	}
}

// TestSpillOnlyUnderMemoryPressure: without a memory budget a spill dir
// stays empty — a full cache drops its oldest vector instead of writing
// it — and the results are unchanged.
func TestSpillOnlyUnderMemoryPressure(t *testing.T) {
	r := correlatedRelation(t, 80)
	want := Discover(r, Options{})
	for _, workers := range []int{1, 2} {
		got := Discover(r, Options{
			Workers:        workers,
			IndexCacheSize: 2,
			SpillDir:       filepath.Join(t.TempDir(), "spill"),
		})
		if got.Stats.SpillEvictions != 0 || got.Stats.SpillReloads != 0 {
			t.Errorf("workers %d: SpillStats = (%d, %d) without a budget, want (0, 0)",
				workers, got.Stats.SpillEvictions, got.Stats.SpillReloads)
		}
		if !equalStrings(formatDeps(want), formatDeps(got)) {
			t.Fatalf("workers %d: a spill dir changed the results", workers)
		}
	}
}

// TestSpillDirUnopenable: a spill dir that cannot be created degrades the
// run to fully in-memory — recorded in SpillError, never an error or a
// wrong result.
func TestSpillDirUnopenable(t *testing.T) {
	r := correlatedRelation(t, 80)
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := Discover(r, Options{})
	got := Discover(r, Options{SpillDir: filepath.Join(blocker, "spill")})
	if got.Stats.SpillError == "" {
		t.Error("unopenable spill dir not recorded in SpillError")
	}
	if got.Stats.SpillEvictions != 0 || got.Stats.SpillReloads != 0 {
		t.Errorf("SpillStats = (%d, %d) with no working spill dir",
			got.Stats.SpillEvictions, got.Stats.SpillReloads)
	}
	if !equalStrings(formatDeps(want), formatDeps(got)) {
		t.Fatal("degraded run changed the results")
	}
}

// TestSpillDirEmptiedAfterRun: segments are pure cache, so the run removes
// them (and the directory, best-effort) on exit.
func TestSpillDirEmptiedAfterRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	r := correlatedRelation(t, 80)
	res := Discover(r, Options{IndexCacheSize: 2, MaxMemoryBytes: 1, SpillDir: dir})
	if res.Stats.SpillEvictions == 0 {
		t.Fatal("test needs at least one spilled segment to prove cleanup")
	}
	entries, err := os.ReadDir(dir)
	if err == nil && len(entries) > 0 {
		t.Fatalf("%d files left in spill dir after the run", len(entries))
	}
}
