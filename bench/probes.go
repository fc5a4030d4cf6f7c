package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ocd"
	"ocd/internal/attr"
	"ocd/internal/checkpoint"
	"ocd/internal/order"
	"ocd/internal/relation"
)

// The layer probes call one module's public functions directly on the
// workload's dataset, so a regression in the layer shows without the
// layers above it. They call only the paths production discovery runs by
// default: the one-shot CSV reader and the re-sorting checker, not the
// chunked reader, the partition checker or the spill manager, so that
// removing an alternative path leaves the benchmark building.

// maxPairs bounds the column pairs each order probe checks. It is also
// the index cache size, so the cached pass hits on every pair.
const maxPairs = 64

// sample times f at least three times and for a fiftieth of the run's
// window, returning seconds per call.
func (t *tracedRun) sample(f func() error) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < 3 || time.Since(start) < t.e.cfg.window/50 {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// relationProbe times CSV ingestion and rank encoding of rows that are
// already split.
func (t *tracedRun) relationProbe(context.Context) error {
	rel := t.e.rel
	data, err := canonicalCSV(rel)
	if err != nil {
		return err
	}
	records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return err
	}
	read, err := t.sample(func() error {
		_, err := relation.ReadCSV(bytes.NewReader(data), rel.Name, relation.CSVOptions{})
		return err
	})
	if err != nil {
		return err
	}
	encode, err := t.sample(func() error {
		_, err := relation.FromStrings(rel.Name, records[0], records[1:], relation.Options{})
		return err
	})
	if err != nil {
		return err
	}
	mib := float64(len(data)) / (1 << 20)
	t.values["relation.read_csv_mb_per_s"] = mib / median(read)
	t.values["relation.from_strings_s"] = median(encode)
	return nil
}

// columnPairs returns up to maxPairs unordered pairs of distinct columns.
func columnPairs(rel *relation.Relation) [][2]attr.ID {
	var out [][2]attr.ID
	for a := 0; a < rel.NumCols(); a++ {
		for b := a + 1; b < rel.NumCols() && len(out) < maxPairs; b++ {
			out = append(out, [2]attr.ID{attr.ID(a), attr.ID(b)})
		}
	}
	return out
}

// orderProbe replays level-2 checks, one column against another, on
// fresh checkers (uncached) and on one warm checker (cached).
func (t *tracedRun) orderProbe(context.Context) error {
	rel := t.e.rel
	pairs := columnPairs(rel)
	if len(pairs) == 0 {
		return fmt.Errorf("%s has fewer than two columns", rel.Name)
	}
	timeEach := func(check func(p [2]attr.ID)) []float64 {
		out := make([]float64, len(pairs))
		for i, p := range pairs {
			t0 := time.Now()
			check(p)
			out[i] = time.Since(t0).Seconds()
		}
		return out
	}
	l := func(a attr.ID) attr.List { return attr.List{a} }

	a0 := heapAllocs()
	uncached := timeEach(func(p [2]attr.ID) { order.NewChecker(rel, maxPairs).CheckOCD(l(p[0]), l(p[1])) })
	allocs := heapAllocs() - a0

	warm := order.NewChecker(rel, maxPairs)
	timeEach(func(p [2]attr.ID) { warm.CheckOCD(l(p[0]), l(p[1])) })
	cached := timeEach(func(p [2]attr.ID) { warm.CheckOCD(l(p[0]), l(p[1])) })

	// Both directions of every pair, as the reduction phase checks them.
	od := append(
		timeEach(func(p [2]attr.ID) { order.NewChecker(rel, maxPairs).CheckOD(l(p[0]), l(p[1])) }),
		timeEach(func(p [2]attr.ID) { order.NewChecker(rel, maxPairs).CheckOD(l(p[1]), l(p[0])) })...)
	index := timeEach(func(p [2]attr.ID) { order.NewChecker(rel, 0).SortedIndex(attr.List{p[0], p[1]}) })

	v := t.values
	v["order.check_ocd_uncached_us.p50"] = median(uncached) * 1e6
	v["order.check_ocd_cached_us.p50"] = median(cached) * 1e6
	v["order.check_od_uncached_us.p50"] = median(od) * 1e6
	v["order.sorted_index_us.p50"] = median(index) * 1e6
	v["order.alloc_kb_per_check"] = float64(allocs) / float64(len(pairs)) / 1024
	return nil
}

// checkpointProbe runs one checkpointed discovery on the canonical data,
// then times loading its final snapshot.
func (t *tracedRun) checkpointProbe(ctx context.Context) error {
	dir := filepath.Join(t.e.cfg.dataDir, t.e.w.name+"-checkpoint-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "probe.ckpt")
	data, err := canonicalCSV(t.e.rel)
	if err != nil {
		return err
	}
	r, err := discover(ctx, data, t.e.rel.Name, ocd.Options{Workers: libraryWorkers, CheckpointPath: path}, nil)
	if err != nil {
		return err
	}
	if r.outcome != t.e.want {
		return fmt.Errorf("checkpointed run: result %+v, want %+v", r.outcome, t.e.want)
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	load, err := t.sample(func() error {
		_, err := checkpoint.Load(path)
		return err
	})
	if err != nil {
		return err
	}
	t.values["checkpoint.snapshot_kb"] = float64(st.Size()) / 1024
	t.values["checkpoint.load_us"] = median(load) * 1e6
	return nil
}
