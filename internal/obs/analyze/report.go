package analyze

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// WriteReport renders the full phase/cache/convergence report as the
// human-readable `citroenstat report` output.
func WriteReport(w io.Writer, r *Report) {
	status := "complete"
	if !r.Complete {
		status = "in flight"
	}
	fmt.Fprintf(w, "runs: %d (%s), events: %d, wall %v, critical path %v",
		r.Runs, status, r.Events,
		time.Duration(r.WallNS).Round(time.Microsecond),
		time.Duration(r.CriticalPathNS).Round(time.Microsecond))
	if r.CriticalPathNS > 0 {
		fmt.Fprintf(w, " (%.2fx parallel speedup)", float64(r.CriticalPathNS)/float64(max64(r.WallNS, 1)))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "iterations: %d, compiles: %d, measurements: %d (+%d reused), checkpoints: %d, resumes: %d\n",
		r.Iterations, r.Compiles, r.Measurements, r.ReusedMeasurements, r.Checkpoints, r.Resumes)
	fmt.Fprintf(w, "best speedup: %.3fx\n", r.BestSpeedup)

	fmt.Fprintln(w, "\nphase attribution (elapsed = run timeline, cpu = summed event walls):")
	fmt.Fprintf(w, "  %-12s %14s %7s %14s %8s %7s\n", "phase", "elapsed", "share", "cpu", "parallel", "events")
	for _, pt := range r.Phases {
		share := 0.0
		if r.WallNS > 0 {
			share = float64(pt.ElapsedNS) / float64(r.WallNS)
		}
		par := "-"
		if pt.ElapsedNS > 0 && pt.CPUNS > 0 {
			par = fmt.Sprintf("%.2fx", float64(pt.CPUNS)/float64(pt.ElapsedNS))
		}
		fmt.Fprintf(w, "  %-12s %14v %6.1f%% %14v %8s %7d\n",
			pt.Phase,
			time.Duration(pt.ElapsedNS).Round(time.Microsecond), 100*share,
			time.Duration(pt.CPUNS).Round(time.Microsecond), par, pt.Events)
	}

	fmt.Fprintln(w, "\ncounters (last value journaled per event):")
	r.Counters.Write(w, "  ")
	var env []string
	for i, v := range r.Counters {
		if id := obs.CounterID(i); id.Env() && v != 0 {
			env = append(env, fmt.Sprintf("%s=%d", strings.TrimPrefix(id.Field(), "env_"), v))
		}
	}
	if len(env) > 0 {
		fmt.Fprintf(w, "  env pools: %s\n", strings.Join(env, " "))
	}

	fmt.Fprintln(w, "\ncache effectiveness:")
	saved := r.Counters[obs.PrefixSavedPasses]
	fmt.Fprintf(w, "  prefix cache: %.1f%% of pipeline work skipped (%d of %d passes)\n",
		100*r.PrefixHitRate(), saved, saved+r.Counters[obs.PrefixReplayedPasses])
	if shared := r.Counters[obs.CowShared]; shared > 0 {
		fmt.Fprintf(w, "  cow clones: %.1f%% of %d handed out stayed shared\n", 100*r.CowShareRate(), shared)
	}
	fmt.Fprintf(w, "  measurement dedup: %d duplicate-statistics candidates reused without budget\n", r.ReusedMeasurements)

	if len(r.Modules) > 0 {
		fmt.Fprintln(w, "\nper-module:")
		fmt.Fprintf(w, "  %-16s %9s %12s %8s %10s\n", "module", "compiles", "compile cpu", "meas", "best")
		for _, name := range sortedModuleNames(r.Modules) {
			m := r.Modules[name]
			best := "-"
			if m.BestSpeedup > 0 {
				best = fmt.Sprintf("%.3fx", m.BestSpeedup)
			}
			fmt.Fprintf(w, "  %-16s %9d %12v %8d %10s\n",
				name, m.Compiles, time.Duration(m.CompileNS).Round(time.Microsecond),
				m.Measurements, best)
		}
	}
}

// WriteConvergence renders the incumbent-speedup-vs-budget curves: the
// program-level incumbent steps, then every module's measurement curve.
func WriteConvergence(w io.Writer, r *Report) {
	fmt.Fprintf(w, "budget-consuming measurements: %d, best speedup: %.3fx\n", r.Measurements, r.BestSpeedup)
	if len(r.Incumbents) > 0 {
		fmt.Fprintln(w, "\nincumbent steps (speedup vs measurement):")
		for _, s := range r.Incumbents {
			mod := s.Module
			if mod == "" {
				mod = "(baseline)"
			}
			fmt.Fprintf(w, "  %4d  %-16s %.3fx\n", s.Measurement, mod, s.Best)
		}
	}
	incumbent := map[int]bool{}
	for _, s := range r.Incumbents {
		incumbent[s.Measurement] = true
	}
	if len(r.Curve) > 0 {
		fmt.Fprintln(w, "\nmeasurement curve (* = new incumbent):")
		for _, s := range r.Curve {
			mark := " "
			if incumbent[s.Measurement] {
				mark = "*"
			}
			fmt.Fprintf(w, "  %4d%s %-16s speedup %.3fx  best %.3fx\n",
				s.Measurement, mark, s.Module, s.Speedup, s.Best)
		}
	}
}

func sortedModuleNames(m map[string]*ModuleReport) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
