package bench

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/obs"
)

// manyModuleApp models the shape where the evaluation engine pays off: a
// large application of ~50 translation units where one kernel module owns
// the runtime and the rest are cold. Without the compiled-module cache every
// runtime measurement re-runs the pass pipeline over all the cold units.
func manyModuleApp() *Benchmark {
	kinds := []irgen.KernelKind{
		irgen.DotProduct, irgen.FIR, irgen.Stencil, irgen.CRC, irgen.Histogram,
		irgen.MinMaxReduce, irgen.StateMachine, irgen.CompareBlocks, irgen.CopyFill,
		irgen.FloatNorm, irgen.Polynomial, irgen.PrefixSum,
	}
	specs := []irgen.ModuleSpec{
		{Name: "core_kern", Kernels: []irgen.KernelSpec{
			{Kind: irgen.DotProduct, Size: 64, Reps: 12, Unroll: 4, ExitPred: ir.CmpSLT},
		}},
	}
	for i := 0; i < 47; i++ {
		var kern []irgen.KernelSpec
		for j := 0; j < 3; j++ {
			kern = append(kern, irgen.KernelSpec{
				Kind: kinds[(i*3+j)%len(kinds)], Size: 16, Reps: 1, ExitPred: ir.CmpSLT,
			})
		}
		specs = append(specs, irgen.ModuleSpec{Name: fmt.Sprintf("unit%02d", i), Kernels: kern})
	}
	return &Benchmark{Name: "manymod", Suite: "spec", Specs: specs}
}

// BenchmarkTuner compares the propose+measure loop before and after the
// evaluation engine: the serial, uncached configuration (the pre-engine
// behaviour) versus the pooled, memoised one. Both produce bit-identical
// tuning results; only wall clock differs. Run with e.g.:
//
//	go test -bench BenchmarkTuner -benchtime 3x ./internal/bench/
func BenchmarkTuner(b *testing.B) {
	app := manyModuleApp()
	for _, cfg := range []struct {
		name     string
		workers  int
		cacheCap int
	}{
		{"serial-nocache", 1, -1},
		{"parallel-cached", 0, defaultCacheCap},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev, err := NewEvaluator(app, ARM(), int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				ev.cacheCap = cfg.cacheCap
				opts := core.DefaultOptions()
				opts.Budget = 12
				opts.HotCoverage = 0.1 // tune the dominant kernel module only
				opts.Workers = cfg.workers
				res, err := core.NewTuner(ev.Task(), opts, int64(i+1)).Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Breakdown.Counters[obs.CacheHits]), "cache-hits")
				b.ReportMetric(float64(res.Breakdown.Compiles), "compiles")
			}
		})
	}
}
