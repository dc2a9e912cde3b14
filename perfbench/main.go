// Command perfbench is the repository's end-to-end benchmark: it runs whole
// tuning jobs on telecom_gsm through the public entry points, times every
// layer from outside, checks the results and prints one metric per line
// followed by a one-line JSON summary.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload citroen-gsm --seed 1 --seconds 50 --trace 0
//
// Workloads (closed loop, one job at a time, tuner seed pinned to 1; --seed
// drives the simulated platform's measurement noise where not pinned):
//
//	citroen-gsm  CITROEN, default options, budget 20, journalled in memory;
//	             the ROADMAP's pinned reference job, noise seed 1 too
//	aibo-flags   AIBO over the 43 -O3 pass flags, budget 200, one worker
//
// With --trace 0 the jobs are untraced and the summary holds the end-to-end
// metrics (medians over the jobs that fit in --seconds, at least three, and
// over set-up samples taken before each job). With
// --trace 1 one untraced job runs, then one job with spans and the pass
// profile on, and the summary holds the per-layer metrics of the traced job.
// A result file with the host stamp, every job and the spans is written
// under .bench_build/results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// minJobs untraced jobs run even past --seconds: the repeat checks
	// always compare jobs of one seed, and the median of three ignores one
	// job slowed by a burst of load from elsewhere on the host.
	minJobs = 3
	// setupPerJob evaluator builds before each job time the set-up, after
	// one untimed build that pays the process's lazy initialisation. A
	// build takes tens of milliseconds, so many samples cost little; taking
	// them throughout the window, as the jobs are, keeps a burst of load
	// from elsewhere on the host at one moment from setting the median.
	setupPerJob = 5
	// hardStop ends the job loop whatever minJobs says, well inside the
	// three minutes one invocation may take.
	hardStop = 150 * time.Second
	// resultsDir, relative to the working directory, receives the result
	// files.
	resultsDir = ".bench_build/results"
)

// hostStamp identifies where and on what a result was measured.
type hostStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NoiseSeed  int64  `json:"noise_seed"`
	TunerSeed  int64  `json:"tuner_seed"`
	Workers    int    `json:"workers"`
}

// commit is the source revision, set at link time by run.sh.
var commit = "unknown"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is the file written under --out.
type result struct {
	Host     hostStamp              `json:"host"`
	Trace    bool                   `json:"trace"`
	Summary  summary                `json:"summary"`
	Problems []string               `json:"problems,omitempty"`
	Defects  []string               `json:"known_defects,omitempty"`
	SetupS   []float64              `json:"setup_s_samples"`
	Jobs     []*jobResult           `json:"jobs"`
	Traced   *jobResult             `json:"traced,omitempty"`
	Catalog  map[string][]metricDef `json:"catalog"`
}

func main() {
	var (
		name  = flag.String("workload", "", "workload to run: citroen-gsm or aibo-flags")
		seed  = flag.Int64("seed", 1, "workload seed: the platform measurement-noise seed of unpinned workloads")
		secs  = flag.Int("seconds", 50, "measurement window in seconds")
		trace = flag.Int("trace", 0, "1 runs a traced job and reports per-layer metrics")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload citroen-gsm|aibo-flags, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*secs)*time.Second, *trace == 1, w.jobWorkers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeResult(resultsDir, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(res)
}

// run measures one workload: set-up samples, then the jobs of the window.
func run(w workload, seed int64, window time.Duration, traced bool, workers int) (*result, error) {
	noise := w.noiseSeed(seed)
	res := &result{
		Host: hostStamp{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit, Workload: w.name, Seed: seed, NoiseSeed: noise, TunerSeed: tunerSeed, Workers: workers,
		},
		Trace:   traced,
		Catalog: map[string][]metricDef{"end_to_end": endToEnd, "per_layer": perLayer},
	}
	if _, _, err := newEvaluator(noise); err != nil {
		return nil, err
	}

	start := time.Now()
	attempted, failed := 0, 0
	for {
		for range setupPerJob {
			runtime.GC() // every build starts from the same heap, as a job's does
			_, d, err := newEvaluator(noise)
			if err != nil {
				return nil, err
			}
			res.SetupS = append(res.SetupS, d.Seconds())
		}
		attempted++
		r, err := runJob(w, noise, workers, false)
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "perfbench: job failed:", err)
			break
		}
		res.Jobs = append(res.Jobs, r)
		res.SetupS = append(res.SetupS, r.Setup.Seconds())
		spent := time.Since(start)
		next := spent + spent/time.Duration(len(res.Jobs))
		if traced || spent > hardStop || (len(res.Jobs) >= minJobs && next > window) {
			break
		}
	}
	if traced && failed == 0 {
		attempted++
		r, err := runJob(w, noise, workers, true)
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "perfbench: traced job failed:", err)
		} else {
			res.Traced = r
		}
	}
	if len(res.Jobs) == 0 || (traced && res.Traced == nil) {
		return nil, fmt.Errorf("%s: no job completed", w.name)
	}

	all := res.allJobs()
	for i, r := range all {
		for _, p := range r.Problems {
			res.Problems = append(res.Problems, fmt.Sprintf("job %d: %s", i+1, p))
		}
	}
	problems, defects := checkRepeats(all)
	res.Problems, res.Defects = append(res.Problems, problems...), defects
	s := summary{Correct: len(res.Problems) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	if traced {
		t := res.Traced
		t.Layers["trace.tune_wall_s"] = t.Wall.Seconds()
		t.Layers["trace.untraced_tune_wall_s"] = res.Jobs[0].Wall.Seconds()
		t.Layers["trace.overhead_ratio"] = t.Wall.Seconds() / res.Jobs[0].Wall.Seconds()
		unstable := 0
		for _, n := range journalDiff(res.Jobs[0].journal, t.journal) {
			unstable += n
		}
		t.Layers["journal.unstable_events"] = float64(unstable)
		for _, d := range perLayer {
			s.Metrics[d.Name] = metricValue{t.Layers[d.Name], d.Unit}
		}
	} else {
		var wall, cpu, heap []float64
		for _, r := range res.Jobs {
			wall = append(wall, r.Wall.Seconds())
			cpu = append(cpu, r.CPU.Seconds())
			heap = append(heap, float64(r.PeakLive)/1e6)
		}
		e2e := map[string]float64{
			"tune_wall_s":  median(wall),
			"cpu_s":        median(cpu),
			"setup_s":      median(res.SetupS),
			"best_speedup": res.Jobs[0].Best,
			"ok_share":     1 - res.Jobs[0].failedShare(),
			"peak_heap_mb": median(heap),
		}
		for _, d := range endToEnd {
			s.Metrics[d.Name] = metricValue{e2e[d.Name], d.Unit}
		}
	}
	res.Summary = s
	return res, nil
}

// allJobs lists the untraced jobs, then the traced one if any.
func (res *result) allJobs() []*jobResult {
	all := append([]*jobResult(nil), res.Jobs...)
	if res.Traced != nil {
		all = append(all, res.Traced)
	}
	return all
}

// scheduleDependent are the journal events whose canonical content
// depends on how compiles interleave on more than one worker once the
// prefix cache starts evicting: the prefix-cache and copy-on-write counters,
// and the run-end summary that repeats them. This is a known defect of the
// evaluator's eviction accounting, reported on every run where it shows; a
// difference in any other event means the search itself changed.
var scheduleDependent = map[string]bool{"prefix-cache-stats": true, "cow-stats": true, "run-end": true}

// checkRepeats checks that every job of one seed found the same best
// speedup, failed the same calls and, where a journal exists, wrote the same
// canonical journal: tracing, timing and scheduling must not change what a
// tuning job does. Journal differences confined to scheduleDependent events
// come back as known defects, everything else as problems.
func checkRepeats(jobs []*jobResult) (problems, defects []string) {
	first := jobs[0]
	for i, r := range jobs[1:] {
		if r.Best != first.Best {
			problems = append(problems, fmt.Sprintf("job %d best speedup %v differs from job 1's %v", i+2, r.Best, first.Best))
		}
		if r.Failed != first.Failed || r.Attempts != first.Attempts {
			problems = append(problems, fmt.Sprintf("job %d failed %d of %d calls, job 1 %d of %d", i+2, r.Failed, r.Attempts, first.Failed, first.Attempts))
		}
		if r.Digest == first.Digest {
			continue
		}
		var search, sched []string
		for typ, n := range journalDiff(first.journal, r.journal) {
			if scheduleDependent[typ] {
				sched = append(sched, fmt.Sprintf("%s x%d", typ, n))
			} else {
				search = append(search, fmt.Sprintf("%s x%d", typ, n))
			}
		}
		sort.Strings(search)
		sort.Strings(sched)
		if len(search) > 0 {
			problems = append(problems, fmt.Sprintf("job %d canonical journal differs from job 1's in search events: %s", i+2, strings.Join(search, ", ")))
		}
		if len(sched) > 0 {
			defects = append(defects, fmt.Sprintf("job %d canonical journal differs from job 1's in schedule-dependent cache accounting: %s", i+2, strings.Join(sched, ", ")))
		}
	}
	return problems, defects
}

func writeResult(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	name := fmt.Sprintf("%s-seed%d-trace%t.json", res.Host.Workload, res.Host.Seed, res.Trace)
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	return nil
}

// printResult prints the host stamp, each job, each metric by name with its
// unit, and last the one-line JSON summary.
func printResult(res *result) {
	h := res.Host
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s commit=%s workload=%s seed=%d noise_seed=%d tuner_seed=%d workers=%d\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Workload, h.Seed, h.NoiseSeed, h.TunerSeed, h.Workers)
	for i, r := range res.allJobs() {
		kind := "untraced"
		if r == res.Traced {
			kind = "traced"
		}
		fmt.Printf("job %d (%s): wall %.3f s, cpu %.3f s, setup %.4f s, best %.4fx, peak live heap %.1f MB, failed_share %.5f (%d of %d calls; compile %d, difftest %d, verify %d, other %d)\n",
			i+1, kind, r.Wall.Seconds(), r.CPU.Seconds(), r.Setup.Seconds(), r.Best, float64(r.PeakLive)/1e6,
			r.failedShare(), r.Failed, r.Attempts, r.Causes["compile"], r.Causes["difftest"], r.Causes["verify"], r.Causes["other"])
	}
	for _, p := range res.Problems {
		fmt.Println("CHECK FAILED:", p)
	}
	for _, d := range res.Defects {
		fmt.Println("KNOWN DEFECT:", d)
	}
	names := make([]string, 0, len(res.Summary.Metrics))
	for n := range res.Summary.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Summary.Metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, v.Value, v.Unit)
	}
	b, err := json.Marshal(res.Summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
