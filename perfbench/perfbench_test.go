package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/tuners"
)

func TestCoverageMergesOverlapsAndClips(t *testing.T) {
	spans := []span{
		{Start: 0, End: 10},
		{Start: 5, End: 15},  // overlaps the first
		{Start: 15, End: 20}, // touches the merged interval
		{Start: 30, End: 40}, // disjoint
		{Start: 50, End: 50}, // empty
	}
	if got := elapsed(spans); got != 30 {
		t.Errorf("elapsed = %d, want 30", got)
	}
	if got := busy(spans); got != 35 {
		t.Errorf("busy = %d, want 35", got)
	}
	if got := coverage(spans, 12, 35); got != 13 {
		t.Errorf("coverage clipped to [12,35] = %d, want 13", got)
	}
	if got := elapsed(nil); got != 0 {
		t.Errorf("elapsed of no spans = %d, want 0", got)
	}
}

func TestSelfTimeSubtractsDirectChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "compile", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "compile", Start: 20, End: 50},  // concurrent with 2
		{ID: 4, Parent: 1, Name: "measure", Start: 90, End: 120}, // runs past the root
		{ID: 5, Parent: 4, Name: "inner", Start: 95, End: 99},    // grandchild: not subtracted from root
	}
	if got := selfTime(spans[0], spans); got != 100-40-10 {
		t.Errorf("root self = %d, want 50", got)
	}
	if got := selfTime(spans[3], spans); got != 30-4 {
		t.Errorf("measure self = %d, want 26", got)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {10, 1}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 10 = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("per-layer metric %s does not say what it moves", d.Name)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog holds BENCHMARK.json and the metrics the
// command emits in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, command %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestCheckRepeatsSeparatesScheduleDependentEvents(t *testing.T) {
	base := func() *jobResult {
		return &jobResult{Best: 1.5, Attempts: 10, Digest: "a", journal: []canonEvent{
			{"measure", `{"m":1}`}, {"prefix-cache-stats", `{"evictions":1}`}, {"run-end", `{"e":1}`},
		}}
	}
	cache := base()
	cache.Digest = "b"
	cache.journal[1].line = `{"evictions":2}`
	problems, defects := checkRepeats([]*jobResult{base(), cache})
	if len(problems) != 0 || len(defects) != 1 {
		t.Errorf("cache-accounting difference: problems %q, defects %q", problems, defects)
	}
	search := base()
	search.Digest = "c"
	search.journal[0].line = `{"m":2}`
	search.Best = 1.6
	problems, _ = checkRepeats([]*jobResult{base(), search})
	if len(problems) != 2 {
		t.Errorf("search difference: problems %q, want a best and a journal problem", problems)
	}
	short := base()
	short.Digest = "d"
	short.journal = short.journal[:2]
	if problems, _ = checkRepeats([]*jobResult{base(), short}); len(problems) != 1 {
		t.Errorf("truncated journal: problems %q, want one", problems)
	}
}

// smallWorkload shrinks w's budget so a job takes about a second.
func smallWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	w.budget = map[string]int{"citroen-gsm": 8, "aibo-flags": 24}[name]
	return w
}

// TestSmokeEmitsEveryMetric runs each workload at a tiny budget, untraced
// and traced, and checks that every declared metric is emitted and that
// the jobs' checks pass.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning jobs")
	}
	for _, w := range workloads {
		w := smallWorkload(t, w.name)
		for _, traced := range []bool{false, true} {
			res, err := run(w, 3, time.Second, traced, 2)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Summary.Correct || len(res.Problems) > 0 {
				t.Errorf("%s traced=%v: not correct: %q", w.name, traced, res.Problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Summary.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(res.Summary.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.Summary.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q", w.name, traced, d.Name, v.Unit)
				}
			}
			if traced {
				continue
			}
			if n := len(res.Jobs); n < minJobs {
				t.Errorf("%s: %d untraced jobs, want at least %d", w.name, n, minJobs)
			}
			for _, d := range endToEnd {
				if v := res.Summary.Metrics[d.Name].Value; v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v)
				}
			}
		}
	}
}

// TestCitroenJournalSameAtWorkers1And2 runs the reference job at its full
// budget on one and on two workers. The search and its result must not
// depend on the worker count. The prefix-cache eviction accounting does
// today (see scheduleDependent); the test logs that known defect.
func TestCitroenJournalSameAtWorkers1And2(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two reference jobs")
	}
	w, _ := workloadByName("citroen-gsm")
	var jobs []*jobResult
	for _, workers := range []int{1, 2} {
		r, err := runJob(w, 1, workers, false)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, r)
	}
	problems, defects := checkRepeats(jobs)
	for _, p := range problems {
		t.Error(p)
	}
	for _, d := range defects {
		t.Log("known defect:", d)
	}
}

// randomGSM is the §5.4.4 random-search baseline on telecom_gsm, budget 900.
// It is not a benchmark workload (see workloads), but at seed 1 it is the
// job that reaches the known miscompiles of passes, so it keeps them
// visible to the failure accounting.
var randomGSM = workload{name: "random-gsm", root: "tuners.random", budget: 900,
	run: func(j *job) (float64, map[string][]string, error) {
		res, err := tuners.Random{}.Tune(j.task, j.w.budget, tunerSeed)
		if err != nil {
			return 0, nil, err
		}
		return res.BestSpeedup, res.BestSeqs, nil
	}}

// TestRandomSearchFailuresCounted runs randomGSM at seed 1. Its failing
// measurements (3 differential-test mismatches and 1 IR-verify failure, a
// known defect of passes) must reach the failure accounting by cause, and
// the job must still complete with a best configuration that passes.
func TestRandomSearchFailuresCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 900-candidate search")
	}
	r, err := runJob(randomGSM, 1, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Problems {
		t.Error(p)
	}
	c := r.Causes
	if r.Failed != c["compile"]+c["difftest"]+c["verify"]+c["other"] {
		t.Errorf("failed %d, by cause %v", r.Failed, c)
	}
	if c["difftest"] == 0 || c["verify"] == 0 {
		t.Errorf("by cause %v: the known seed-1 difftest and verify failures are not counted", c)
	}
	t.Logf("known defect: %d of %d calls failed, by cause %v", r.Failed, r.Attempts, c)
}
