package analyze

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// A journal holding several runs splits at its run-start events, and each
// run analyzes to its own curve, incumbents and pass profile.
func TestSummarize(t *testing.T) {
	mem := &obs.MemorySink{}
	r := obs.NewRecorder(mem)
	for run := 0; run < 2; run++ {
		span := r.RunStart(map[string]any{"budget": 3})
		r.NewIncumbent(span, "", 0, 1.0)
		r.Measure(span, "m", 1, 90, 1.1, 1.1, true, false, 0)
		r.NewIncumbent(span, "m", 1, 1.1)
		r.Measure(span, "m", 0, 90, 1.1, 1.1, true, true, 0) // reused: not on curve
		r.Measure(span, "m", 2, 95, 1.05, 1.1, true, false, 0)
		r.RunEnd(span, map[string]any{
			"best_speedup": 1.1,
			"pass_profile": []any{map[string]any{
				"pass": "gvn", "invocations": 4, "fired": 2, "wall_ns": int64(100), "delta_total": 9,
			}},
		})
	}
	runs := SplitRuns(mem.Events())
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	for i := range runs {
		s := Analyze(runs[i])
		if got := s.BestSpeedup; got != 1.1 {
			t.Fatalf("run %d best = %v", i, got)
		}
		if len(s.Curve) != 2 || s.Curve[0].Measurement != 1 || s.Curve[1].Speedup != 1.05 {
			t.Fatalf("run %d curve = %+v", i, s.Curve)
		}
		if len(s.Incumbents) != 2 {
			t.Fatalf("run %d incumbents = %+v", i, s.Incumbents)
		}
		if pp := s.PassProfile(); len(pp) != 1 || pp[0].Pass != "gvn" || pp[0].DeltaTotal != 9 {
			t.Fatalf("run %d pass profile = %+v", i, pp)
		}
	}
}

func TestBreakdownShares(t *testing.T) {
	s := Report{Final: map[string]any{"breakdown": map[string]any{
		"gp_fit_ns": float64(10), "acq_max_ns": float64(50),
		"compile_ns": float64(30), "measure_ns": float64(40),
	}}}
	shares := s.BreakdownShares()
	// acquisition = acq - compile = 20; total = 10+20+30+40 = 100.
	want := map[string]float64{"gp-fit": 0.1, "acquisition": 0.2, "compile": 0.3, "measure": 0.4}
	if !reflect.DeepEqual(shares, want) {
		t.Fatalf("shares = %v, want %v", shares, want)
	}
	if (&Report{}).BreakdownShares() != nil {
		t.Fatal("missing run-end must yield nil shares")
	}
}
