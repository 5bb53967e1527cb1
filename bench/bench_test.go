package main

import (
	"testing"
	"time"

	"partita"
	"partita/internal/selector"
)

// TestSmoke runs every workload for about a second, traced, and requires
// zero failures, a nonzero value for every end-to-end metric
// BENCHMARK.json names, and every per-layer metric it names to be
// measured by some workload.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	for _, name := range []string{"tables", "scaled", "explore", "service"} {
		start := time.Now()
		res, err := workloads[name](config{seed: 1, window: time.Second, trace: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res.metrics["peak_rss_mb"] = peakRSSMB()
		res.tr.layerMetrics(res.metrics)
		if res.attempted == 0 || res.failed != 0 {
			t.Errorf("%s: %d of %d operations failed", name, res.failed, res.attempted)
		}
		for _, d := range sp.EndToEnd {
			if v := res.report(sp.EndToEnd).Metrics[d.Name].Value; v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, v)
			}
		}
		for m := range res.metrics {
			measured[m] = true
		}
		t.Logf("%s: %d operations in %v", name, res.attempted, time.Since(start).Round(time.Millisecond))
	}
	for _, d := range sp.PerLayer {
		if !measured[d.Name] {
			t.Errorf("no workload measures per-layer metric %s", d.Name)
		}
	}
}

// TestExploreStagesMatchAnalyze checks that the explore workload's
// stage-by-stage calls build the same database partita.Analyze does.
func TestExploreStagesMatchAnalyze(t *testing.T) {
	pool, err := explorePool()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range pool {
		db, _, _, _, err := design(w, nil, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		d, err := partita.Analyze(w.Source, w.Root, w.Catalog, partita.Options{DataCount: w.DataCount})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		staged := selector.MaxReachableGain(db)
		if len(db.IMPs) != len(d.DB.IMPs) || staged != d.MaxReachableGain() {
			t.Errorf("%s: stages give %d IMPs and max gain %d, partita.Analyze %d and %d",
				w.Name, len(db.IMPs), staged, len(d.DB.IMPs), d.MaxReachableGain())
		}
	}
}
