package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/heuristic"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/passes"
)

// syntheticTask is an in-memory Task over a tiny real benchmark-like module:
// it compiles the paper's dot-product kernel and returns noisy cycle counts
// from a static cost proxy, keeping core's unit tests independent of the
// bench package (which imports core). CompileModule is called from the
// tuner's evaluation pool, so its counter is mutex-guarded.
type syntheticTask struct {
	build    func() *ir.Module
	baseline float64
	mu       sync.Mutex
	measures int
	compiles int
}

func newSyntheticTask(t *testing.T) *syntheticTask {
	st := &syntheticTask{build: buildDotModule}
	y, err := st.cost(nil)
	if err != nil {
		t.Fatal(err)
	}
	st.baseline = y
	return st
}

// cost compiles with the sequence and returns a static cost: weighted
// instruction count with vector ops discounted (a stand-in for execution).
func (s *syntheticTask) cost(seq []string) (float64, error) {
	m := s.build()
	m.TargetVecWidth64 = 2
	var err error
	if seq == nil {
		err = passes.ApplyLevel(m, "O3", passes.Stats{})
	} else {
		err = passes.Apply(m, seq, passes.Stats{}, false)
	}
	if err != nil {
		return 0, err
	}
	cost := 0.0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch {
				case in.Op == ir.OpLoad && in.Ty.IsVector():
					cost += 1.5
				case in.Op == ir.OpLoad:
					cost += 4
				case in.Op == ir.OpMul:
					cost += 3
				default:
					cost++
				}
			}
		}
	}
	return cost + 10, nil
}

func (s *syntheticTask) Modules() []string { return []string{"mod"} }

func (s *syntheticTask) CompileModule(_ context.Context, mod string, seq []string) (*ir.Module, passes.Stats, error) {
	s.mu.Lock()
	s.compiles++
	s.mu.Unlock()
	m := s.build()
	m.TargetVecWidth64 = 2
	st := passes.Stats{}
	var err error
	if seq == nil {
		err = passes.ApplyLevel(m, "O3", st)
	} else {
		err = passes.Apply(m, seq, st, false)
	}
	if err != nil {
		return nil, nil, err
	}
	return m, st, nil
}

func (s *syntheticTask) Measure(_ context.Context, seqs map[string][]string) (float64, error) {
	s.mu.Lock()
	s.measures++
	s.mu.Unlock()
	return s.cost(seqs["mod"])
}

func (s *syntheticTask) BaselineTime() float64 { return s.baseline }

func (s *syntheticTask) HotModules(float64) ([]string, error) { return []string{"mod"}, nil }

// buildDotModule mirrors the paper's Fig 5.1 kernel.
func buildDotModule() *ir.Module {
	m := &ir.Module{Name: "mod"}
	bd := ir.NewBuilder(m)
	w := bd.AddGlobal("w", ir.I16T, 8)
	d := bd.AddGlobal("d", ir.I16T, 8)
	w.InitI = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	d.InitI = []int64{8, 7, 6, 5, 4, 3, 2, 1}
	bd.NewFunction("main", ir.VoidT)
	acc := bd.Alloca(ir.I64T, 1)
	bd.Store(ir.ConstInt(ir.I64T, 0), acc)
	for i := 0; i < 8; i++ {
		wl := bd.Load(ir.I16T, bd.GEP(w, ir.ConstInt(ir.I64T, int64(i))))
		dl := bd.Load(ir.I16T, bd.GEP(d, ir.ConstInt(ir.I64T, int64(i))))
		mul := bd.Bin(ir.OpMul, bd.Cast(ir.OpSExt, wl, ir.I32T), bd.Cast(ir.OpSExt, dl, ir.I32T))
		mul.Flags |= ir.FlagNoWrap
		wide := bd.Cast(ir.OpSExt, mul, ir.I64T)
		cur := bd.Load(ir.I64T, acc)
		sum := bd.Bin(ir.OpAdd, cur, wide)
		sum.Flags |= ir.FlagNoWrap
		bd.Store(sum, acc)
	}
	bd.Call("sim.out.i64", ir.VoidT, bd.Load(ir.I64T, acc))
	bd.Ret(nil)
	return m
}

func fastOpts() Options {
	o := DefaultOptions()
	o.Budget = 25
	o.Lambda = 6
	o.SeqMin = 4
	o.SeqMax = 30
	o.InitRandom = 4
	o.GPOpts.AdamSteps = 15
	return o
}

func TestCitroenRunsAndImproves(t *testing.T) {
	task := newSyntheticTask(t)
	res, err := NewTuner(task, fastOpts(), 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no measurements recorded")
	}
	if res.BestSpeedup <= 0 {
		t.Fatalf("speedup = %v", res.BestSpeedup)
	}
	// The trace's best speedup must be non-decreasing.
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].BestSpeedup < res.Trace[i-1].BestSpeedup-1e-9 {
			t.Fatal("best-so-far trace decreased")
		}
	}
	if res.Breakdown.Measures == 0 || res.Breakdown.Compiles == 0 {
		t.Fatal("breakdown not populated")
	}
	if res.Breakdown.Compiles <= res.Breakdown.Measures {
		t.Fatalf("stats-guided search should compile more than it measures: %d vs %d",
			res.Breakdown.Compiles, res.Breakdown.Measures)
	}
	if len(res.Importance) == 0 {
		t.Fatal("no ARD importance ranking")
	}
	if len(res.HotModules) != 1 {
		t.Fatalf("hot modules = %v", res.HotModules)
	}
}

func TestCitroenBudgetRespected(t *testing.T) {
	task := newSyntheticTask(t)
	o := fastOpts()
	o.Budget = 12
	res, err := NewTuner(task, o, 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Measures > o.Budget {
		t.Fatalf("budget exceeded: %d > %d", res.Breakdown.Measures, o.Budget)
	}
	if len(res.Trace) != res.Breakdown.Measures {
		t.Fatalf("trace/measure mismatch: %d vs %d", len(res.Trace), res.Breakdown.Measures)
	}
}

func TestCitroenDeterministic(t *testing.T) {
	a, err := NewTuner(newSyntheticTask(t), fastOpts(), 42).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTuner(newSyntheticTask(t), fastOpts(), 42).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.BestSpeedup != b.BestSpeedup || len(a.Trace) != len(b.Trace) {
		t.Fatalf("non-deterministic: %v vs %v", a.BestSpeedup, b.BestSpeedup)
	}
}

func TestCitroenDedupSavesMeasurements(t *testing.T) {
	task := newSyntheticTask(t)
	o := fastOpts()
	o.Budget = 30
	res, err := NewTuner(task, o, 3).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Many random short sequences over a tiny kernel produce identical
	// statistics; the dedup path must fire.
	if res.SavedMeasurements == 0 && res.CandidateDupRate == 0 {
		t.Fatalf("expected duplicate statistics on a tiny kernel: %+v", res)
	}
}

func TestCitroenFeatureVariants(t *testing.T) {
	for _, feat := range []FeatureKind{FeatStats, FeatAutophase, FeatTokenMix, FeatRawSeq} {
		o := fastOpts()
		o.Budget = 10
		o.Feature = feat
		res, err := NewTuner(newSyntheticTask(t), o, 4).Run()
		if err != nil {
			t.Fatalf("feature %v: %v", feat, err)
		}
		if res.BestSpeedup <= 0 {
			t.Fatalf("feature %v: no result", feat)
		}
	}
}

func TestCitroenAblationsRun(t *testing.T) {
	base := fastOpts()
	base.Budget = 10
	variants := []func(*Options){
		func(o *Options) { o.CoverageAF = false },
		func(o *Options) { o.HeuristicInit = false },
		func(o *Options) { o.Adaptive = false },
	}
	for i, v := range variants {
		o := base
		v(&o)
		if _, err := NewTuner(newSyntheticTask(t), o, int64(i)).Run(); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}
}

// TestCitroenWorkersDeterminism pins the tentpole guarantee of the parallel
// evaluation engine: candidate generation and every RNG draw happen outside
// the parallel region, so the serial mode (Workers: 1) and a heavily
// oversubscribed pool must produce bit-identical tuning runs.
func TestCitroenWorkersDeterminism(t *testing.T) {
	run := func(workers int) *Result {
		o := fastOpts()
		o.Workers = workers
		res, err := NewTuner(newSyntheticTask(t), o, 7).Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial.Trace, parallel.Trace) {
		t.Fatalf("trace differs between Workers=1 and Workers=8:\n%v\nvs\n%v",
			serial.Trace, parallel.Trace)
	}
	if serial.BestSpeedup != parallel.BestSpeedup {
		t.Fatalf("best speedup differs: %v vs %v", serial.BestSpeedup, parallel.BestSpeedup)
	}
	if !reflect.DeepEqual(serial.BestSeqs, parallel.BestSeqs) {
		t.Fatalf("best sequences differ: %v vs %v", serial.BestSeqs, parallel.BestSeqs)
	}
}

// Regression: clampSeq used to pad short sequences with pass index 0,
// silently injecting repeated copies of whichever pass is first in the
// vocabulary. Padding must resample from the RNG instead.
func TestClampSeqPadsWithoutPassZeroBias(t *testing.T) {
	sp := heuristic.SeqSpace{Vocab: 40, MinLen: 8, MaxLen: 12}
	rng := rand.New(rand.NewSource(1))
	out := clampSeq([]int{5}, sp, rng)
	if len(out) != sp.MinLen {
		t.Fatalf("len = %d, want %d", len(out), sp.MinLen)
	}
	if out[0] != 5 {
		t.Fatalf("existing genes rewritten: %v", out)
	}
	zeros := 0
	for _, g := range out[1:] {
		if g < 0 || g >= sp.Vocab {
			t.Fatalf("pad gene %d outside vocabulary", g)
		}
		if g == 0 {
			zeros++
		}
	}
	if zeros == len(out)-1 {
		t.Fatalf("padding still biased to pass 0: %v", out)
	}
	// Truncation side must still clamp to MaxLen.
	long := make([]int, 30)
	if got := clampSeq(long, sp, rng); len(got) != sp.MaxLen {
		t.Fatalf("truncated len = %d, want %d", len(got), sp.MaxLen)
	}
}

// groupByPrefix must serialise identical sequences even when they are shorter
// than the shared-prefix threshold: the evaluator compiles concurrent
// identical requests independently, so splitting them across groups would
// make their cache hits depend on scheduling.
func TestGroupByPrefixKeepsIdenticalShortSequencesTogether(t *testing.T) {
	a, b := &moduleState{name: "a"}, &moduleState{name: "b"}
	jobs := []candJob{{ms: a}, {ms: a}, {ms: a}, {ms: b}, {ms: a}}
	names := [][]string{
		{"dce", "gvn"},
		{"licm"},
		{"dce", "gvn"},
		{"dce", "gvn"}, // same sequence, other module: never grouped
		{"dce", "gvn", "sroa"},
	}
	got := groupByPrefix(jobs, names)
	want := [][]int{{0, 2}, {4}, {1}, {3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
}

// Regression: seqIndices used to silently drop unknown pass names, so a typo
// in Options.SeedSequences degraded transfer with no signal.
func TestSeedSequenceUnknownPassErrors(t *testing.T) {
	o := fastOpts()
	o.Budget = 4
	o.SeedSequences = [][]string{{"mem2reg", "no-such-pass", "dce"}}
	_, err := NewTuner(newSyntheticTask(t), o, 11).Run()
	if err == nil {
		t.Fatal("typo in seed sequence not rejected")
	}
	if !strings.Contains(err.Error(), "no-such-pass") {
		t.Fatalf("error does not name the unknown pass: %v", err)
	}
}

// TestBestSpeedupTraceInvariant pins the fixed bestSoFar computation:
// BestSpeedup must equal the running max of measured speedups (floored at
// the -O3 observation, speedup 1) and therefore be monotone non-decreasing.
func TestBestSpeedupTraceInvariant(t *testing.T) {
	o := fastOpts()
	o.Budget = 20
	res, err := NewTuner(newSyntheticTask(t), o, 13).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace")
	}
	best := 1.0 // observation 0 is the -O3 build itself
	for i, tp := range res.Trace {
		if tp.Speedup > best {
			best = tp.Speedup
		}
		if diff := tp.BestSpeedup - best; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trace %d: BestSpeedup %v, want running max %v", i, tp.BestSpeedup, best)
		}
		if i > 0 && tp.BestSpeedup < res.Trace[i-1].BestSpeedup {
			t.Fatalf("trace %d: BestSpeedup decreased", i)
		}
	}
	if res.BestSpeedup != res.Trace[len(res.Trace)-1].BestSpeedup {
		t.Fatalf("final BestSpeedup %v != last trace point %v",
			res.BestSpeedup, res.Trace[len(res.Trace)-1].BestSpeedup)
	}
}

func TestFeatureIndexAndSparseVec(t *testing.T) {
	fi := NewFeatureIndex()
	v1 := sparseVec{"a": 1, "b": 2}
	d1 := v1.dense(fi, "m|")
	if len(d1) != 2 || fi.Dim() != 2 {
		t.Fatalf("dense = %v dim=%d", d1, fi.Dim())
	}
	v2 := sparseVec{"b": 2, "c": 3}
	d2 := v2.dense(fi, "m|")
	if len(d2) != 3 {
		t.Fatalf("index did not grow: %v", d2)
	}
	if v1.key() == v2.key() {
		t.Fatal("distinct vectors share a key")
	}
	if v1.key() != (sparseVec{"b": 2, "a": 1}).key() {
		t.Fatal("key not order-independent")
	}
	seen := map[string]bool{}
	if v1.novelDims(seen, "m|") != 2 {
		t.Fatal("novelty count wrong")
	}
	v1.markSeen(seen, "m|")
	if v2.novelDims(seen, "m|") != 1 {
		t.Fatal("novelty after marking wrong")
	}
}

func TestExtractVariantsNonEmpty(t *testing.T) {
	m := buildDotModule()
	st := passes.Stats{}
	if err := passes.Apply(m, []string{"mem2reg", "slp-vectorizer"}, st, false); err != nil {
		t.Fatal(err)
	}
	seq := []string{"mem2reg", "slp-vectorizer"}
	for _, k := range []FeatureKind{FeatStats, FeatAutophase, FeatTokenMix, FeatRawSeq} {
		v := extract(k, m, st, seq)
		if len(v) == 0 {
			t.Fatalf("feature %v empty", k)
		}
	}
	// Stats features must include the SLP counter.
	sv := extract(FeatStats, m, st, seq)
	if _, ok := sv["SLP.NumVectorInstructions"]; !ok {
		t.Fatalf("stats features missing SLP counter: %v", sv)
	}
	_ = fmt.Sprint(FeatStats, FeatAutophase, FeatTokenMix, FeatRawSeq)
}

func TestSeedSequencesTransfer(t *testing.T) {
	// A seed sequence known to be good for the dot kernel must be measured
	// first and adopted as the incumbent.
	task := newSyntheticTask(t)
	o := fastOpts()
	o.Budget = 8
	o.InitRandom = 2
	o.SeedSequences = [][]string{{"mem2reg", "slp-vectorizer", "dce"}}
	res, err := NewTuner(task, o, 9).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no measurements")
	}
	// The transfer seed must be the first configuration measured, and the
	// incumbent must never regress below any measured point.
	if res.BestSpeedup+1e-9 < res.Trace[0].Speedup {
		t.Fatal("incumbent regressed below the seed")
	}
	noSeed := fastOpts()
	noSeed.Budget = 8
	noSeed.InitRandom = 2
	task2 := newSyntheticTask(t)
	res2, err := NewTuner(task2, noSeed, 9).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Trace) == 0 {
		t.Fatal("no measurements without seeds")
	}
}

// --- checkpoint, resume, cancellation ---

// eventLog captures journal events for assertions.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) Emit(e *obs.Event) {
	l.mu.Lock()
	cp := *e
	l.events = append(l.events, cp)
	l.mu.Unlock()
}

func (l *eventLog) types() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.events))
	for i := range l.events {
		out[i] = l.events[i].Type
	}
	return out
}

// cancellingTask cancels a context after a fixed number of measurements.
type cancellingTask struct {
	*syntheticTask
	mu     sync.Mutex
	n      int
	after  int
	cancel context.CancelFunc
}

func (c *cancellingTask) Measure(ctx context.Context, seqs map[string][]string) (float64, error) {
	c.mu.Lock()
	c.n++
	if c.n == c.after {
		c.cancel()
	}
	c.mu.Unlock()
	return c.syntheticTask.Measure(ctx, seqs)
}

func TestCheckpointHookFiresAndIsConsistent(t *testing.T) {
	task := newSyntheticTask(t)
	var ckpts []*Checkpoint
	opts := fastOpts()
	opts.Budget = 12
	opts.CheckpointEvery = 4
	opts.Checkpoint = func(c *Checkpoint) error { ckpts = append(ckpts, c); return nil }
	res, err := NewTuner(task, opts, 3).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) < 2 {
		t.Fatalf("expected periodic + final checkpoints, got %d", len(ckpts))
	}
	last := ckpts[len(ckpts)-1]
	if err := last.Validate(); err != nil {
		t.Fatal(err)
	}
	if last.Measurements != len(last.Observations) {
		t.Fatalf("Measurements=%d, len(Observations)=%d", last.Measurements, len(last.Observations))
	}
	if last.Measurements != len(res.Trace) {
		t.Fatalf("final checkpoint has %d measurements, trace has %d", last.Measurements, len(res.Trace))
	}
	if last.BestSpeedup != res.BestSpeedup {
		t.Fatalf("checkpoint best %v != result best %v", last.BestSpeedup, res.BestSpeedup)
	}
	// Periodic snapshots land on CheckpointEvery boundaries.
	for _, c := range ckpts[:len(ckpts)-1] {
		if c.Measurements%opts.CheckpointEvery != 0 {
			t.Fatalf("periodic checkpoint at %d measurements, every=%d", c.Measurements, opts.CheckpointEvery)
		}
	}
}

func TestCancelMidRunCheckpointsAndResumes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	task := &cancellingTask{syntheticTask: newSyntheticTask(t), after: 6, cancel: cancel}

	var last *Checkpoint
	log1 := &eventLog{}
	opts := fastOpts()
	opts.Budget = 20
	opts.CheckpointEvery = 2
	opts.Checkpoint = func(c *Checkpoint) error { last = c; return nil }
	opts.Sink = log1
	res, err := NewTuner(task, opts, 7).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Trace) == 0 {
		t.Fatal("cancelled run must still return the partial result")
	}
	if last == nil {
		t.Fatal("no final checkpoint on cancellation")
	}
	if last.Measurements != len(res.Trace) {
		t.Fatalf("checkpoint %d measurements, trace %d", last.Measurements, len(res.Trace))
	}
	found := false
	for _, typ := range log1.types() {
		if typ == "run-end" {
			found = true
		}
	}
	if !found {
		t.Fatal("cancelled run journal is missing run-end")
	}

	// Resume with the remaining budget: the warm start must preserve the
	// incumbent and consume no extra budget for the replayed observations.
	log2 := &eventLog{}
	opts2 := fastOpts()
	opts2.Budget = opts.Budget
	opts2.ResumeFrom = last
	opts2.Checkpoint = func(c *Checkpoint) error { return nil }
	opts2.Sink = log2
	res2, err := NewTuner(newSyntheticTask(t), opts2, 7).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.BestSpeedup < last.BestSpeedup-1e-9 {
		t.Fatalf("resumed best %v < checkpointed best %v", res2.BestSpeedup, last.BestSpeedup)
	}
	if got := len(res2.Trace); got > opts.Budget-last.Measurements {
		t.Fatalf("resumed run measured %d times, budget remainder is %d",
			got, opts.Budget-last.Measurements)
	}
	resumed := false
	for _, typ := range log2.types() {
		if typ == "resume" {
			resumed = true
		}
	}
	if !resumed {
		t.Fatal("resumed run journal is missing the resume event")
	}
}

func TestResumeRejectsBadCheckpoints(t *testing.T) {
	task := newSyntheticTask(t)
	opts := fastOpts()
	opts.ResumeFrom = &Checkpoint{Version: 99}
	if _, err := NewTuner(task, opts, 1).Run(); err == nil {
		t.Fatal("version mismatch must fail the run")
	}
	opts.ResumeFrom = &Checkpoint{
		Version:      CheckpointVersion,
		Observations: []Observation{{Module: "nope", Seq: []string{"mem2reg"}, Y: 0.9}},
	}
	if _, err := NewTuner(task, opts, 1).Run(); err == nil {
		t.Fatal("unknown module must fail the run")
	}
}

func TestCancelDuringSetupReturnsNilResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewTuner(newSyntheticTask(t), fastOpts(), 1).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("setup-phase cancellation must not fabricate a result")
	}
}
