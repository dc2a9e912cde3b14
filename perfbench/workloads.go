package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/aibo"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/heuristic"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/passes"
)

// tunerSeed pins every tuner's own random stream to the ROADMAP reference
// job's seed. The benchmark's --seed drives the simulated platform's
// measurement noise instead (see workload.pinned): which sequences a tuner visits at a given
// tuner seed decides whether its incumbents trip the slow loop-sink
// shapes, so across tuner seeds one CITROEN job takes anywhere from 1 s to
// 18 s and no bound could hold.
const tunerSeed = 1

// workload is one kind of tuning job.
type workload struct {
	name string
	// root names the span that covers the tuner call; self names the
	// per-layer metric that gets its self time ("" for none).
	root, self string
	// budget is the job's measurement budget.
	budget int
	// journal attaches an in-memory event journal to the job.
	journal bool
	// pinned fixes the measurement noise to tunerSeed as well, ignoring
	// --seed. The noise steers CITROEN's model-guided choices: on 3 of 25
	// noise seeds the reference job never reaches the slow loop-sink
	// incumbents and takes 5 s instead of 15 s, which no bound could hold.
	pinned bool
	// serial runs the job on one worker instead of one per CPU.
	serial bool
	run    func(j *job) (best float64, bestSeqs map[string][]string, err error)
}

// jobWorkers is the worker count of w's jobs, never more than the host
// has CPUs. AIBO on one worker per CPU keeps every CPU busy in its GP fit
// and acquisition, so load from elsewhere on a shared host stalls its
// workers: on two CPUs, a busy loop on one slowed the job by 35% (by 17%
// on one worker), and its wall-time spread across runs outgrew any bound.
// CITROEN's compile workers are not all busy at once: the same busy loop
// left its job as fast as before.
func (w workload) jobWorkers() int {
	if w.serial {
		return 1
	}
	return runtime.NumCPU()
}

// workloads are the benchmark's workloads, in BENCHMARK.json's order. The
// random-search baseline (randomGSM in the tests) is not one of them: its
// run-to-run wall-time spread on a shared two-CPU host exceeds any bound
// the benchmark may set unless its runs are long, and the time for all runs
// allows long runs for two workloads only. These two are the ones with a
// layer of their own: the CITROEN core and journal, and the AIBO surrogate.
var workloads = []workload{
	{name: "citroen-gsm", root: "core.run", self: "core.self_s", budget: 20, journal: true, pinned: true, run: runCitroen},
	{name: "aibo-flags", root: "aibo.run", self: "aibo.self_s", budget: 200, serial: true, run: runAIBO},
}

// noiseSeed is the platform measurement-noise seed a job of w uses for the
// benchmark's --seed.
func (w workload) noiseSeed(seed int64) int64 {
	if w.pinned {
		return tunerSeed
	}
	return seed
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runCitroen is the ROADMAP reference job: CITROEN with the default options
// on telecom_gsm, one compile worker per CPU, journalled in memory.
func runCitroen(j *job) (float64, map[string][]string, error) {
	o := core.DefaultOptions()
	o.Budget = j.w.budget
	o.Workers = j.workers
	o.Sink = j.sink
	o.Metrics = j.metrics
	res, err := core.NewTuner(j.task, o, tunerSeed).Run()
	if err != nil {
		return 0, nil, err
	}
	j.core = res
	return res.BestSpeedup, res.BestSeqs, nil
}

// runAIBO is the Fig 4.4 compiler-flag objective under AIBO: one binary
// flag per distinct pass of the -O3 pipeline, a cleared flag dropping every
// occurrence of that pass, minimising runtime relative to -O3. The options
// are the ones internal/experiments uses for Fig 4.4.
func runAIBO(j *job) (float64, map[string][]string, error) {
	pipeline := passes.O3Sequence()
	idx := map[string]int{}
	for _, p := range pipeline {
		if _, ok := idx[p]; !ok {
			idx[p] = len(idx)
		}
	}
	config := func(x []float64) map[string][]string {
		var seq []string
		for _, p := range pipeline {
			if x[idx[p]] >= 0.5 {
				seq = append(seq, p)
			}
		}
		seqs := map[string][]string{}
		for _, m := range j.task.Modules() {
			seqs[m] = seq
		}
		return seqs
	}
	base := j.task.BaselineTime()
	obj := func(x []float64) float64 {
		id := j.tr.start("objective", j.root)
		j.setMeasureParent(id)
		t, err := j.task.Measure(context.Background(), config(x))
		j.setMeasureParent(j.root)
		j.tr.end(id)
		if err != nil {
			return 10 // the failure penalty internal/experiments uses for Fig 4.4
		}
		return t / base
	}
	box := make(heuristic.Bounds, len(idx))
	for i := range box {
		box[i] = [2]float64{0, 1}
	}
	o := aibo.DefaultOptions()
	o.InitSamples = j.w.budget / 4
	o.RawCandidates = 100
	o.GradSteps = 10
	o.RefitEvery = 3
	o.GPOpts.AdamSteps = 25
	o.GPOpts.Restarts = 1
	o.Workers = j.workers
	res, err := aibo.Minimize(obj, box, j.w.budget, o, tunerSeed)
	if err != nil {
		return 0, nil, err
	}
	return 1 / res.BestY, config(res.BestX), nil
}

// job is one tuning job on a fresh evaluator: the instrumented task the
// tuner drives and everything observed at its layer boundaries.
type job struct {
	w       workload
	ev      *bench.Evaluator
	task    *core.BenchTask
	workers int
	metrics *obs.Metrics
	tr      *tracer         // nil when untraced
	prof    *passes.Profile // nil when untraced
	root    int64
	journal *obs.MemorySink // nil for workloads without a journal
	sink    obs.Sink
	core    *core.Result // CITROEN's result, nil for the other tuners

	mu            sync.Mutex
	measureParent int64
	compileCalls  int
	compileErrs   int
	measureCalls  int
	difftestErrs  int
	verifyErrs    int
	otherErrs     int
	measCompileNS int64
	peakLive      uint64
	heap          []metrics.Sample
}

func (j *job) setMeasureParent(id int64) {
	j.mu.Lock()
	j.measureParent = id
	j.mu.Unlock()
}

// passWallNS is the wall time passes.Profile has recorded so far.
func (j *job) passWallNS() int64 {
	if j.prof == nil {
		return 0
	}
	var ns int64
	for _, c := range j.prof.Costs() {
		ns += c.Wall.Nanoseconds()
	}
	return ns
}

// instrument returns a copy of t whose compile and measure hooks count
// calls and failures, sample the live heap after each measurement and, when
// traced, record a span per call.
func (j *job) instrument(t *core.BenchTask) *core.BenchTask {
	w := *t
	compile, measure := t.CompileFn, t.MeasureFn
	w.CompileFn = func(ctx context.Context, mod string, seq []string) (*ir.Module, passes.Stats, error) {
		id := j.tr.start("compile", j.root)
		m, st, err := compile(ctx, mod, seq)
		j.tr.end(id)
		j.mu.Lock()
		j.compileCalls++
		if err != nil {
			j.compileErrs++
		}
		j.mu.Unlock()
		return m, st, err
	}
	w.MeasureFn = func(ctx context.Context, seqs map[string][]string) (float64, error) {
		j.mu.Lock()
		parent := j.measureParent
		j.mu.Unlock()
		before := j.passWallNS()
		id := j.tr.start("measure", parent)
		v, err := measure(ctx, seqs)
		j.tr.end(id)
		compileNS := j.passWallNS() - before
		metrics.Read(j.heap)
		live := j.heap[0].Value.Uint64()
		j.mu.Lock()
		defer j.mu.Unlock()
		j.measureCalls++
		j.measCompileNS += compileNS
		j.peakLive = max(j.peakLive, live)
		switch {
		case err == nil:
		case strings.Contains(err.Error(), "differential test failed"):
			j.difftestErrs++
		case strings.Contains(err.Error(), "IR invalid"):
			j.verifyErrs++
		default:
			j.otherErrs++
		}
		return v, err
	}
	return &w
}

// timedSink times every journal write as a span under the tuner span.
type timedSink struct {
	next obs.Sink
	j    *job
}

func (s timedSink) Emit(e *obs.Event) {
	id := s.j.tr.start("journal.emit", s.j.root)
	s.next.Emit(e)
	s.j.tr.end(id)
}

// jobResult is what one job reports.
type jobResult struct {
	Setup    time.Duration `json:"setup_ns"`
	Wall     time.Duration `json:"wall_ns"`
	CPU      time.Duration `json:"cpu_ns"`
	Best     float64       `json:"best_speedup"`
	Attempts int           `json:"attempts"`
	Failed   int           `json:"failed"`
	// Causes splits Failed by cause: compile, difftest, verify, other.
	Causes   map[string]int `json:"failed_by_cause"`
	PeakLive uint64         `json:"peak_live_bytes"`
	// Digest is the SHA-256 of the canonicalised journal ("" without one).
	Digest string `json:"journal_digest,omitempty"`
	// Layers holds the per-layer metrics of a traced job.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
	// PassWall is every pass's summed wall time in a traced job, seconds.
	PassWall map[string]float64 `json:"pass_wall_s,omitempty"`
	// Problems lists the output checks the job failed.
	Problems []string `json:"problems,omitempty"`
	journal  []canonEvent
}

func (r *jobResult) failedShare() float64 { return float64(r.Failed) / float64(r.Attempts) }

// newEvaluator builds the telecom_gsm evaluator on the ARM platform with
// the given measurement-noise seed and times the build.
func newEvaluator(noise int64) (*bench.Evaluator, time.Duration, error) {
	t0 := time.Now()
	ev, err := bench.NewEvaluator(bench.ByName("telecom_gsm"), bench.ARM(), noise)
	return ev, time.Since(t0), err
}

// runJob runs one job of w with the platform noise seed noise on a fresh
// evaluator, checks its outputs and, when traced, derives the per-layer
// metrics from its spans and counters. An error means the job did not
// complete; a failed output check is listed in the result's Problems.
func runJob(w workload, noise int64, workers int, traced bool) (*jobResult, error) {
	runtime.GC() // start every job from the same heap: no garbage of the last
	ev, setup, err := newEvaluator(noise)
	if err != nil {
		return nil, err
	}
	j := &job{
		w: w, ev: ev, workers: workers, metrics: obs.NewMetrics(),
		heap: []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
	if traced {
		j.tr = newTracer(fmt.Sprintf("%s-noise%d-%d", w.name, noise, time.Now().UnixNano()))
		j.prof = passes.NewProfile()
	}
	ev.SetObs(j.metrics, j.prof)
	j.task = j.instrument(ev.Task().(*core.BenchTask))
	if w.journal {
		j.journal = &obs.MemorySink{}
		j.sink = j.journal
		if traced {
			j.sink = timedSink{next: j.journal, j: j}
		}
	}

	rt0 := readRuntime()
	anaHits0, anaMiss0 := ir.AnalysisCacheCounters()
	cpu0 := cpuTime()
	start := time.Now()
	j.root = j.tr.start(w.root, 0)
	j.measureParent = j.root
	best, bestSeqs, err := w.run(j)
	j.tr.end(j.root)
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rt1 := readRuntime()
	anaHits1, anaMiss1 := ir.AnalysisCacheCounters()

	r := &jobResult{
		Setup: setup, Wall: wall, CPU: cpu, Best: best,
		Attempts: j.compileCalls + j.measureCalls,
		Failed:   j.compileErrs + j.difftestErrs + j.verifyErrs + j.otherErrs,
		PeakLive: j.peakLive,
		Causes: map[string]int{
			"compile": j.compileErrs, "difftest": j.difftestErrs,
			"verify": j.verifyErrs, "other": j.otherErrs,
		},
	}
	if r.Attempts == 0 {
		return nil, fmt.Errorf("%s: the tuner made no compile or measure call", w.name)
	}
	var events []obs.Event
	if j.journal != nil {
		events = j.journal.Events()
		if r.journal, r.Digest, err = canonical(events); err != nil {
			return nil, err
		}
	}
	if traced {
		r.Spans = j.tr.snapshot()
		r.Layers = j.layers(r, events, rt1.sub(rt0), anaHits1-anaHits0, anaMiss1-anaMiss0)
	}
	// Counters are read; the evaluator may now run the output check.
	if err := checkJob(j, r, bestSeqs); err != nil {
		r.Problems = append(r.Problems, err.Error())
	}
	return r, nil
}

// checkJob verifies a job's outputs: a finite positive speedup, a best
// configuration that still passes the differential test against the
// unoptimised reference, and for CITROEN a journal that tells the same
// result the tuner returned.
func checkJob(j *job, r *jobResult, bestSeqs map[string][]string) error {
	if math.IsNaN(r.Best) || math.IsInf(r.Best, 0) || r.Best <= 0 {
		return fmt.Errorf("best speedup %v is not a positive number", r.Best)
	}
	if _, _, err := j.ev.Measure(bestSeqs); err != nil {
		return fmt.Errorf("best configuration fails re-measurement: %w", err)
	}
	if j.core != nil {
		if n := len(j.core.Trace); n != j.w.budget {
			return fmt.Errorf("CITROEN spent %d of %d measurements", n, j.w.budget)
		}
		var end *obs.Event
		events := j.journal.Events()
		for i := range events {
			if events[i].Type == "run-end" {
				end = &events[i]
			}
		}
		if end == nil {
			return fmt.Errorf("journal has no run-end event")
		}
		if got, ok := end.Fields["best_speedup"].(float64); !ok || got != r.Best {
			return fmt.Errorf("journal run-end best_speedup %v, tuner returned %v", end.Fields["best_speedup"], r.Best)
		}
	}
	return nil
}

// canonEvent is one journal event with its timing and environment fields
// stripped (obs.Canonicalize), encoded as JSON.
type canonEvent struct {
	typ, line string
}

// canonical encodes the canonicalised journal and hashes it: equal digests
// mean the same search and the same accounting, whatever the timing.
func canonical(events []obs.Event) ([]canonEvent, string, error) {
	out := make([]canonEvent, 0, len(events))
	h := sha256.New()
	for _, e := range obs.Canonicalize(events) {
		b, err := json.Marshal(e)
		if err != nil {
			return nil, "", fmt.Errorf("canonical journal: %w", err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
		out = append(out, canonEvent{e.Type, string(b)})
	}
	return out, hex.EncodeToString(h.Sum(nil)), nil
}

// journalDiff counts, by event type, the canonical events at which two
// journals differ; events one journal has beyond the other's end count
// under "missing".
func journalDiff(a, b []canonEvent) map[string]int {
	diff := map[string]int{}
	for i := range min(len(a), len(b)) {
		if a[i].line != b[i].line {
			diff[a[i].typ]++
		}
	}
	if n := len(a) - len(b); n != 0 {
		diff["missing"] += max(n, -n)
	}
	return diff
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters are the Go runtime's cumulative allocation and GC counts.
type runtimeCounters struct{ allocBytes, gcCycles uint64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles}
}
