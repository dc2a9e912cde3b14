package bench

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/passes"
)

func obsTunerOpts() core.Options {
	o := core.DefaultOptions()
	o.Budget = 8
	o.Lambda = 4
	o.InitRandom = 3
	o.GPOpts.AdamSteps = 10
	return o
}

// End-to-end: a real evaluator run journaled through JSONL must decode to the
// same canonical event stream for Workers=1 and Workers=8, and the journal
// must agree with the returned Result.
func TestJournalEndToEndWorkerEquality(t *testing.T) {
	evicting := core.DefaultOptions()
	evicting.Budget = 8
	for _, in := range []struct {
		name string
		seed int64
		opts core.Options
		// snapBudget replaces the snapshot byte budget when nonzero. The
		// default 64 MiB is never filled by the first run; 4 MiB makes the
		// second evict, which must not make any counter schedule-dependent.
		snapBudget int64
	}{
		{"default-budget", 5, obsTunerOpts(), 0},
		{"evicting", 1, evicting, 4 << 20},
	} {
		t.Run(in.name, func(t *testing.T) {
			run := func(workers int) ([]obs.Event, *core.Result, *obs.Metrics) {
				ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), in.seed)
				if err != nil {
					t.Fatal(err)
				}
				if in.snapBudget != 0 {
					ev.snapshotBudget = in.snapBudget
				}
				met := obs.NewMetrics()
				ev.SetObs(met, passes.NewProfile())
				var buf bytes.Buffer
				sink := obs.NewJSONLSink(&buf)
				o := in.opts
				o.Workers = workers
				o.Sink = sink
				o.Metrics = met
				res, err := core.NewTuner(ev.Task(), o, in.seed).Run()
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if err := sink.Close(); err != nil {
					t.Fatal(err)
				}
				events, err := obs.ReadJournal(&buf)
				if err != nil {
					t.Fatal(err)
				}
				return events, res, met
			}

			evS, resS, metS := run(1)
			evP, resP, _ := run(8)

			if len(evS) == 0 {
				t.Fatal("no events journaled")
			}
			cS, cP := obs.Canonicalize(evS), obs.Canonicalize(evP)
			if len(cS) != len(cP) {
				t.Fatalf("event counts differ: %d vs %d", len(cS), len(cP))
			}
			for i := range cS {
				if !reflect.DeepEqual(cS[i], cP[i]) {
					t.Fatalf("event %d differs between Workers=1 and Workers=8:\n%+v\nvs\n%+v", i, cS[i], cP[i])
				}
			}
			evictions := obs.FieldFloat(evS[len(evS)-1].Fields, obs.PrefixEvictions.Key())
			if (in.snapBudget != 0) != (evictions > 0) {
				t.Fatalf("run-end %s = %v with snapshot budget %d", obs.PrefixEvictions.Key(), evictions, in.snapBudget)
			}
			if resS.BestSpeedup != resP.BestSpeedup {
				t.Fatalf("best speedup differs: %v vs %v", resS.BestSpeedup, resP.BestSpeedup)
			}

			// Replayed journal agrees with the Result.
			runs := analyze.SplitRuns(evS)
			if len(runs) != 1 {
				t.Fatalf("SplitRuns found %d runs, want 1", len(runs))
			}
			rep := analyze.Analyze(runs[0])
			if got := rep.BestSpeedup; got != resS.BestSpeedup {
				t.Fatalf("replayed best speedup %v != Result %v", got, resS.BestSpeedup)
			}
			if len(rep.PassProfile()) == 0 {
				t.Fatal("run-end event carries no pass profile")
			}

			// The registry's cache counters match the evaluator's.
			if hits := metS.Gauge(obs.CacheHits.MetricName()).Value(); hits == 0 {
				t.Fatal("no cache hits recorded for a run with repeated incumbents")
			}

			// Per-pass profile came through the Result too, deterministically ordered.
			if len(resS.PassProfile) == 0 {
				t.Fatal("Result.PassProfile empty with profiling enabled")
			}
			for i := 1; i < len(resS.PassProfile); i++ {
				if resS.PassProfile[i-1].DeltaTotal() < resS.PassProfile[i].DeltaTotal() {
					t.Fatal("Result.PassProfile not sorted by delta")
				}
			}
		})
	}
}

// SetObs must mirror the evaluator's plain counters into the registry and
// feed the machine-cycles histogram from every timing run.
func TestSetObsCountersAndHistogram(t *testing.T) {
	ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 3)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	prof := passes.NewProfile()
	ev.SetObs(met, prof)

	if _, _, err := ev.Measure(map[string][]string{"long_term": {"mem2reg", "instcombine"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ev.Measure(map[string][]string{"long_term": {"mem2reg", "instcombine"}}); err != nil {
		t.Fatal(err)
	}

	hits, misses := ev.CacheCounters()
	if got := met.Gauge(obs.CacheHits.MetricName()).Value(); got != float64(hits) {
		t.Fatalf("registry hits %v != evaluator %d", got, hits)
	}
	if got := met.Gauge(obs.CacheMisses.MetricName()).Value(); got != float64(misses) {
		t.Fatalf("registry misses %v != evaluator %d", got, misses)
	}
	// Datasets × Runs timing samples per Measure call.
	wantSamples := int64(2 * ev.Datasets * ev.Runs)
	if got := met.Histogram("machine_run_cycles", nil).Count(); got != wantSamples {
		t.Fatalf("cycles histogram has %d samples, want %d", got, wantSamples)
	}
	// The second, fully cached Measure must run no pipelines; profiled
	// invocations come only from the first build's misses.
	if len(prof.Costs()) == 0 {
		t.Fatal("pass profile empty after measurements")
	}
	if misses == 0 || hits == 0 {
		t.Fatalf("expected both hits and misses, got %d/%d", hits, misses)
	}
}

// counterRun tunes telecom_gsm on one worker with the journal, the metrics
// registry (shared by evaluator and tuner) and the Result all attached.
func counterRun(t *testing.T) ([]obs.Event, *core.Result, *obs.Metrics) {
	t.Helper()
	ev, err := NewEvaluator(ByName("telecom_gsm"), ARM(), 5)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	ev.SetObs(met, nil)
	mem := &obs.MemorySink{}
	o := obsTunerOpts()
	o.Workers = 1
	o.Sink = mem
	o.Metrics = met
	res, err := core.NewTuner(ev.Task(), o, 5).Run()
	if err != nil {
		t.Fatal(err)
	}
	return mem.Events(), res, met
}

// Every counter of the set must end with one value in every place it
// flows to: Result.Breakdown, the last journal event of its group, run-end
// (canonical counters), analyze.Report and the metrics registry.
func TestCounterFlow(t *testing.T) {
	events, res, met := counterRun(t)
	last := map[string]*obs.Event{}
	for i := range events {
		last[events[i].Type] = &events[i]
	}
	runEnd := last["run-end"]
	if runEnd == nil {
		t.Fatal("journal has no run-end event")
	}
	rep := analyze.Analyze(events)
	for _, g := range obs.CounterGroups {
		moved := false
		for id := g.First; id < g.End; id++ {
			want := res.Breakdown.Counters[id]
			moved = moved || want != 0
			t.Run(id.Key(), func(t *testing.T) {
				e := last[g.Event]
				if e == nil {
					t.Fatalf("no %s event journaled", g.Event)
				}
				if got := obs.FieldFloat(e.Fields, id.Field()); got != float64(want) {
					t.Errorf("last %s %s = %v, Breakdown %d", g.Event, id.Field(), got, want)
				}
				_, inRunEnd := runEnd.Fields[id.Key()]
				if got := obs.FieldFloat(runEnd.Fields, id.Key()); inRunEnd == id.Env() || (!id.Env() && got != float64(want)) {
					t.Errorf("run-end %s = %v (present %v), Breakdown %d", id.Key(), got, inRunEnd, want)
				}
				if got := rep.Counters[id]; got != want {
					t.Errorf("analyze.Report = %d, Breakdown %d", got, want)
				}
				if got := met.Gauge(id.MetricName()).Value(); got != float64(want) {
					t.Errorf("registry %s = %v, Breakdown %d", id.MetricName(), got, want)
				}
			})
		}
		if !moved {
			t.Errorf("no %s counter moved in a real run", g.Event)
		}
	}
	if res.Breakdown.GPFits != int(res.Breakdown.Counters[obs.GPFits]) ||
		res.Breakdown.GPAppends != int(res.Breakdown.Counters[obs.GPAppends]) {
		t.Errorf("Breakdown.GPFits/GPAppends %d/%d do not restate the set", res.Breakdown.GPFits, res.Breakdown.GPAppends)
	}
}

// The counter events are part of the journal contract (CI's greps,
// citroenstat diff and the benchmark's list of schedule-dependent events
// rely on them), so their types, field names, run-end keys and the order
// they follow each measurement are pinned here literally.
func TestCounterJournalShape(t *testing.T) {
	want := []struct {
		typ    string
		fields []string
	}{
		{"cache-stats", []string{"hits", "misses"}},
		{"prefix-cache-stats", []string{"evictions", "replayed_passes", "saved_passes", "snapshot_bytes"}},
		{"cow-stats", []string{"env_ir_analysis_hits", "env_ir_analysis_misses", "env_ir_clone_cow", "env_ir_clone_materialized", "env_ir_clone_slab_funcs",
			"env_ir_clone_stray_instrs", "env_machine_pool_gets", "env_machine_pool_news",
			"env_passes_pool_gets", "env_passes_pool_news", "materialized", "shared"}},
		{"bc-stats", []string{"bytecode_bytes", "code_hits", "code_misses", "fused_sites", "lowered_funcs", "super_hits"}},
		{"gp-stats", []string{"appends", "fits"}},
	}
	runEndKeys := []string{"cache_hits", "cache_misses",
		"prefix_saved_passes", "prefix_replayed_passes", "prefix_snapshot_bytes", "prefix_evictions",
		"cow_shared", "cow_materialized",
		"bc_lowered_funcs", "bc_bytecode_bytes", "bc_fused_sites", "bc_super_hits", "bc_code_hits", "bc_code_misses",
		"gp_fits", "gp_appends"}

	events, _, _ := counterRun(t)
	counterEvents := map[string]int{}
	for _, w := range want {
		counterEvents[w.typ] = 0
	}
	measurements := 0
	for i, e := range events {
		if _, ok := counterEvents[e.Type]; ok {
			counterEvents[e.Type]++
		}
		if e.Type != "measure" || !obs.FieldBool(e.Fields, "ok") || obs.FieldBool(e.Fields, "reused") {
			continue
		}
		measurements++
		next := i + 1
		if next < len(events) && events[next].Type == "new-incumbent" {
			next++
		}
		for k, w := range want {
			if next+k >= len(events) {
				t.Fatalf("journal ends before %s after measure event %d", w.typ, i)
			}
			got := events[next+k]
			var fields []string
			for f := range got.Fields {
				fields = append(fields, f)
			}
			sort.Strings(fields)
			if got.Type != w.typ || !reflect.DeepEqual(fields, w.fields) {
				t.Fatalf("counter event %d after measure event %d = %s %v, want %s %v", k, i, got.Type, fields, w.typ, w.fields)
			}
		}
	}
	if measurements == 0 {
		t.Fatal("no budget-consuming measurements journaled")
	}
	for typ, n := range counterEvents {
		if n != measurements {
			t.Errorf("%d %s events for %d measurements: counter events belong after measurements only", n, typ, measurements)
		}
	}
	end := events[len(events)-1]
	if end.Type != "run-end" {
		t.Fatalf("last event is %s, want run-end", end.Type)
	}
	for _, k := range runEndKeys {
		if _, ok := end.Fields[k]; !ok {
			t.Errorf("run-end lacks counter key %q", k)
		}
	}
}
