package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	// "The highest percentile with ten samples beyond it."
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {16, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{300, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := supportedPercentile(90, 16); got != 50 {
		t.Errorf("16 samples support p%g, want p50", got)
	}
	if got := supportedPercentile(90, 15000); got != 90 {
		t.Errorf("15000 samples clamp p90 to p%g", got)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %g, want 2", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("interpolated median = %g, want 1.5", got)
	}
	if got := iqrFrac(xs); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("iqrFrac = %g, want 2/3", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 3, 2, 4}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := worstPairwise([]float64{100, 110, 104}); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("worstPairwise = %g, want 0.10", got)
	}
}

func TestNormalise(t *testing.T) {
	// One normalised millisecond is a millisecond on a host where the
	// reference kernel takes refUnit.
	if got := normalise(250*time.Millisecond, refUnit); got != 250 {
		t.Errorf("at the reference speed 250 ms read %g nms", got)
	}
	// A host twice as slow takes twice as long for both.
	if got := normalise(500*time.Millisecond, 2*refUnit); got != 250 {
		t.Errorf("on a host twice as slow 500 ms read %g nms, want 250", got)
	}
	ph := phase{refs: []time.Duration{80 * time.Millisecond, 120 * time.Millisecond, 200 * time.Millisecond}}
	if got := ph.refFor(0, true); got != 100*time.Millisecond {
		t.Errorf("refFor(0) = %v, want the mean of the runs around it", got)
	}
	if got := ph.refFor(1, true); got != 160*time.Millisecond {
		t.Errorf("refFor(1) = %v, want 160ms", got)
	}
	// A timer-bound workload is reported raw.
	if got := normalise(50*time.Millisecond, ph.refFor(1, false)); got != 50 {
		t.Errorf("raw 50 ms read %g", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: noSpan},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},     // overlaps a: counted once
		{Name: "late", Start: 90, End: 120, Parent: 0}, // clipped to the parent
		{Name: "grandchild", Start: 12, End: 18, Parent: 1},
		{Name: "outside", Start: 200, End: 210, Parent: 0}, // no overlap at all
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if got := selfByName(spans)["parent"]; got != 50 {
		t.Errorf("selfByName(parent) = %v, want 50ns", got)
	}

	var off *recorder
	id := off.begin("x", noSpan, "")
	off.end(id, "")
	if id != noSpan || off.snapshot() != nil {
		t.Errorf("a nil recorder must record nothing")
	}
	rec := newRecorder()
	p := rec.begin("p", noSpan, "run-1")
	c := rec.begin("c", p, "")
	rec.end(c, "run-2")
	rec.end(p, "")
	got := rec.snapshot()
	if len(got) != 2 || got[1].Parent != p || got[1].Run != "run-2" || got[0].Run != "run-1" || got[0].End < got[1].End {
		t.Errorf("recorded spans = %+v", got)
	}
}

func TestHelpers(t *testing.T) {
	if got := routeOf("POST", "/fleet/workers/w-3/lease"); got != "POST /fleet/workers/{id}/lease" {
		t.Errorf("routeOf = %q", got)
	}
	if got := routeOf("GET", "/runs/r-17"); got != "GET /runs/{id}" {
		t.Errorf("routeOf = %q", got)
	}
	fp := "part0 caps[1.5:3>17,2.5:4>18,3.5:3>17] sink=1\npart1 caps[] sink=2\ndrops=3"
	if got := distinctCaptured(fp); got != 2 {
		t.Errorf("distinctCaptured = %d, want 2", got)
	}
}

func TestRefkRepeats(t *testing.T) {
	if a, b := refHeap(), refHeap(); a != b {
		t.Errorf("heap half differs between calls: %v vs %v", a, b)
	}
	if a, b := refMap(), refMap(); a != b {
		t.Errorf("map half differs between calls: %v vs %v", a, b)
	}
}

// TestSmoke runs every workload for one set-up, one untraced and one
// traced repetition on a shrunken input, with all correctness checks
// on, and turns the result into both metric sets.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, def := range workloads {
		began := time.Now()
		w := def.make()
		switch x := w.(type) {
		case *scenarioWorkload:
			x.small = true
		case *fleetWorkload:
			x.small, x.traced = true, true
		}
		if err := w.setUp(7); err != nil {
			t.Fatalf("%s: set-up: %v", def.name, err)
		}
		rec := newRecorder()
		ph := phase{refs: []time.Duration{refUnit, refUnit, refUnit}}
		ph.reps = append(ph.reps, w.rep(nil, "plain"), w.rep(rec, "traced"))
		fin := w.finish()
		info := w.info()
		res, all := endToEndResult(def.name, info, ph, fin, []float64{1}, []float64{peakRSSMB()})
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: result %+v", def.name, res)
		}
		for _, d := range endToEnd {
			v, inLine := res.Metrics[d.name]
			if inLine != (d.only == nil) || (inLine && v.Unit != d.unit) {
				t.Errorf("%s: result line has %s = %+v", def.name, d.name, v)
			}
			if x, ok := all[d.name]; ok != d.definedOn(def.name) || (ok && !(x > 0)) {
				t.Errorf("%s: end-to-end metric %s = %v (defined %v)", def.name, d.name, x, ok)
			}
		}
		spans := rec.snapshot()
		if len(spans) == 0 {
			t.Errorf("%s: traced repetition recorded no spans", def.name)
		}
		layer := map[string]float64{}
		switch x := w.(type) {
		case *scenarioWorkload:
			scenarioLayers(layer, x, phase{reps: ph.reps[1:], refs: ph.refs[1:]}, spans)
			if layer["des.events_per_run"] == 0 || layer["experiments."+x.prefix+"_run_nms"] <= 0 {
				t.Errorf("%s: scenario layers %v", def.name, layer)
			}
		case *fleetWorkload:
			fleetLayers(layer, phase{reps: ph.reps[1:]}, fin)
			if layer["fleet.polls_per_case"] == 0 || math.Abs(fin.layer["fleet.journal_records_per_case"]-3) > 0.2 {
				t.Errorf("%s: fleet layers %v %v", def.name, layer, fin.layer)
			}
			handler := 0
			for _, s := range spans {
				if s.Name == "http POST /fleet/complete" && s.Parent != noSpan && spans[s.Parent].Name == "worker.complete" {
					handler++
				}
			}
			if handler == 0 {
				t.Errorf("%s: no handler span is parented on the worker call that caused it", def.name)
			}
		}
		if err := w.tearDown(); err != nil {
			t.Errorf("%s: tear-down: %v", def.name, err)
		}
		t.Logf("%s: %v", def.name, time.Since(began))
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Logf("smoke took %v (target: under 5 s on a quiet machine)", d)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the driver
// reads, in step with the tables the harness reports from.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./cmd/hbpbench"}) || !reflect.DeepEqual(b.Paths, []string{"cmd/hbpbench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the harness runs %d", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q", i, w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s %s: bound mismatch", kind, m.Name)
			}
		}
	}
	all, scoped := gated()
	check("end_to_end", b.EndToEnd, all, true)
	check("per_layer", b.PerLayer, append(scoped, perLayer...), false)
}
