package main

import (
	"math"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (the tests hold the two in step); Moves
// records which end-to-end metric a per-layer metric should move, and on
// which workload, so a change to one layer states its prediction up front.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"moves,omitempty"`
}

// endToEnd are the metrics a user of a tuning job sees, from untraced jobs.
var endToEnd = []metricDef{
	{Name: "tune_wall_s", Unit: "s", Better: "lower"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "best_speedup", Unit: "x", Better: "higher"},
	{Name: "ok_share", Unit: "ratio", Better: "higher"},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower"},
}

// topPasses are the passes whose wall time is reported one by one: the
// most expensive by wall on any workload.
var topPasses = []string{
	"loop-sink", "slp-vectorizer", "loop-unroll-full", "early-cse-memssa",
	"aggressive-instcombine", "reassociate", "early-cse", "globalopt",
	"instcombine", "mergefunc",
}

const (
	movesCompile = "tune_wall_s and cpu_s on citroen-gsm; no move on aibo-flags"
	movesPasses  = "tune_wall_s and cpu_s on citroen-gsm; at most 4% of them on aibo-flags"
	movesMeasure = "at most 5% of tune_wall_s on citroen-gsm"
	movesCore    = "tune_wall_s on citroen-gsm"
	movesAIBO    = "tune_wall_s and cpu_s on aibo-flags; no move on the others"
	movesFailed  = "ok_share on citroen-gsm and aibo-flags"
	movesRuntime = "cpu_s on every workload"
	movesTrace   = "none: tracing overhead, traced job against the untraced one"
)

// perLayer are the metrics of single layers, from the traced job.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// bench compile path
		{"compile.calls", "count", "lower", movesCompile},
		{"compile.busy_s", "s", "lower", movesCompile},
		{"compile.elapsed_s", "s", "lower", movesCompile},
		{"compile.p50_ms", "ms", "lower", movesCompile},
		{"compile.p95_ms", "ms", "lower", movesCompile},
		{"compile.errors", "count", "lower", movesFailed},
		{"cache.hit_ratio", "ratio", "higher", movesCompile},
		{"prefix.saved_passes", "count", "higher", movesCompile},
		{"prefix.replayed_passes", "count", "lower", movesCompile},
		{"prefix.hit_ratio", "ratio", "higher", movesCompile},
		{"prefix.evictions", "count", "lower", movesCompile},
		{"prefix.snapshot_mb", "MB", "lower", "peak_heap_mb on citroen-gsm"},
		// evalpool
		{"compile.concurrency", "ratio", "higher", "tune_wall_s on citroen-gsm, not cpu_s"},
		// passes
		{"passes.wall_s", "s", "lower", movesPasses},
		{"passes.invocations", "count", "lower", movesPasses},
		{"passes.fired_ratio", "ratio", "higher", movesPasses},
	}
	for _, p := range topPasses {
		defs = append(defs, metricDef{"pass." + p + ".wall_s", "s", "lower", movesPasses})
	}
	return append(defs, []metricDef{
		// ir
		{"ir.analysis_hit_ratio", "ratio", "higher", "cpu_s on citroen-gsm"},
		{"cow.shared", "count", "higher", "cpu_s on citroen-gsm"},
		{"cow.materialized", "count", "lower", "cpu_s on citroen-gsm"},
		// machine
		{"measure.calls", "count", "lower", movesMeasure},
		{"measure.busy_s", "s", "lower", movesMeasure},
		{"measure.p50_ms", "ms", "lower", movesMeasure},
		{"measure.p95_ms", "ms", "lower", movesMeasure},
		{"measure.compile_s", "s", "lower", movesMeasure},
		{"measure.exec_s", "s", "lower", movesMeasure},
		{"bc.code_hit_ratio", "ratio", "higher", movesMeasure},
		{"bc.lowered_funcs", "count", "lower", movesMeasure},
		{"bc.super_hits", "count", "higher", movesMeasure},
		{"measure.errors", "count", "lower", movesFailed},
		{"measure.errors.difftest", "count", "lower", movesFailed},
		{"measure.errors.verify", "count", "lower", movesFailed},
		// failure accounting
		{"calls.attempted", "count", "lower", movesFailed},
		{"failed_share", "ratio", "lower", movesFailed},
		// core
		{"core.self_s", "s", "lower", movesCore},
		{"core.gp_fit_s", "s", "lower", movesCore},
		{"gp.fits", "count", "lower", movesCore},
		{"gp.appends", "count", "higher", movesCore},
		{"core.dup_candidates", "count", "lower", movesCore},
		// aibo, gp, acq
		{"aibo.self_s", "s", "lower", movesAIBO},
		{"objective.calls", "count", "lower", movesAIBO},
		{"objective.busy_s", "s", "lower", movesAIBO},
		// obs
		{"journal.events", "count", "lower", movesCore},
		{"journal.emit_s", "s", "lower", movesCore},
		{"journal.unstable_events", "count", "lower", "none: canonical journal events that differ between the untraced and traced job (schedule-dependent cache accounting)"},
		{"obs.compile_elapsed_gap_s", "s", "lower", "none: journal phase attribution against spans on citroen-gsm"},
		// Go runtime
		{"runtime.alloc_mb", "MB", "lower", movesRuntime},
		{"runtime.gc_cycles", "count", "lower", movesRuntime},
		// tracing overhead
		{"trace.tune_wall_s", "s", "lower", movesTrace},
		{"trace.untraced_tune_wall_s", "s", "lower", movesTrace},
		{"trace.overhead_ratio", "ratio", "lower", movesTrace},
	}...)
}()

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// layers derives the per-layer metrics of a traced job from its spans, the
// counters the evaluator and tuner expose, and its journal, and records
// every pass's wall time in r.PassWall. Metrics of a layer the workload
// does not reach read 0. The trace.* and journal.unstable_events metrics
// are added by the caller, which also holds the untraced job.
func (j *job) layers(r *jobResult, events []obs.Event, rt runtimeCounters, anaHits, anaMiss int64) map[string]float64 {
	spans := r.Spans
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}

	compiles := named(spans, "compile")
	compileElapsed := elapsed(compiles)
	m["compile.calls"] = float64(j.compileCalls)
	m["compile.busy_s"] = seconds(busy(compiles))
	m["compile.elapsed_s"] = seconds(compileElapsed)
	m["compile.p50_ms"] = percentile(durationsMS(compiles), 50)
	m["compile.p95_ms"] = percentile(durationsMS(compiles), 95)
	m["compile.errors"] = float64(j.compileErrs)
	m["compile.concurrency"] = ratio(float64(busy(compiles)), float64(compileElapsed))

	hits, misses := j.ev.CacheCounters()
	m["cache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	saved, replayed, snapBytes, evictions := j.ev.PrefixCounters()
	m["prefix.saved_passes"] = float64(saved)
	m["prefix.replayed_passes"] = float64(replayed)
	m["prefix.hit_ratio"] = ratio(float64(saved), float64(saved+replayed))
	m["prefix.evictions"] = float64(evictions)
	m["prefix.snapshot_mb"] = float64(snapBytes) / 1e6

	r.PassWall = map[string]float64{}
	var passWall int64
	var invocations, fired int
	for _, c := range j.prof.Costs() {
		r.PassWall[c.Name] = c.Wall.Seconds()
		passWall += c.Wall.Nanoseconds()
		invocations += c.Invocations
		fired += c.Fired
	}
	m["passes.wall_s"] = seconds(passWall)
	m["passes.invocations"] = float64(invocations)
	m["passes.fired_ratio"] = ratio(float64(fired), float64(invocations))
	for _, p := range topPasses {
		m["pass."+p+".wall_s"] = r.PassWall[p]
	}

	m["ir.analysis_hit_ratio"] = ratio(float64(anaHits), float64(anaHits+anaMiss))
	shared, materialized := j.ev.CowCounters()
	m["cow.shared"] = float64(shared)
	m["cow.materialized"] = float64(materialized)

	measures := named(spans, "measure")
	m["measure.calls"] = float64(j.measureCalls)
	m["measure.busy_s"] = seconds(busy(measures))
	m["measure.p50_ms"] = percentile(durationsMS(measures), 50)
	m["measure.p95_ms"] = percentile(durationsMS(measures), 95)
	m["measure.compile_s"] = seconds(j.measCompileNS)
	m["measure.exec_s"] = seconds(busy(measures) - j.measCompileNS)
	bc := j.ev.BcCounters()
	m["bc.code_hit_ratio"] = ratio(float64(bc.CodeHits), float64(bc.CodeHits+bc.CodeMisses))
	m["bc.lowered_funcs"] = float64(bc.LoweredFuncs)
	m["bc.super_hits"] = float64(bc.SuperHits)
	m["measure.errors"] = float64(j.difftestErrs + j.verifyErrs + j.otherErrs)
	m["measure.errors.difftest"] = float64(j.difftestErrs)
	m["measure.errors.verify"] = float64(j.verifyErrs)
	m["calls.attempted"] = float64(r.Attempts)
	m["failed_share"] = r.failedShare()

	if j.w.self != "" {
		m[j.w.self] = seconds(selfTime(spans[j.root-1], spans))
	}
	if res := j.core; res != nil {
		bd := res.Breakdown
		m["core.gp_fit_s"] = bd.GPFit.Seconds()
		m["gp.fits"] = float64(bd.GPFits)
		m["gp.appends"] = float64(bd.GPAppends)
		m["core.dup_candidates"] = math.Round(res.CandidateDupRate * float64(bd.Compiles))
	}
	objectives := named(spans, "objective")
	m["objective.calls"] = float64(len(objectives))
	m["objective.busy_s"] = seconds(busy(objectives))

	m["journal.events"] = float64(len(events))
	m["journal.emit_s"] = seconds(busy(named(spans, "journal.emit")))
	if len(events) > 0 {
		m["obs.compile_elapsed_gap_s"] = analyze.Analyze(events).PhaseSeconds(analyze.PhaseCompile) - seconds(compileElapsed)
	}

	m["runtime.alloc_mb"] = float64(rt.allocBytes) / 1e6
	m["runtime.gc_cycles"] = float64(rt.gcCycles)
	return m
}
