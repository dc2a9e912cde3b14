package analyze

import "repro/internal/obs"

// SplitRuns splits a journal holding several runs (one per repeat of an
// experiment sweep) at its run-start events. Events before the first
// run-start form a run of their own.
func SplitRuns(events []obs.Event) [][]obs.Event {
	var runs [][]obs.Event
	for i, e := range events {
		if e.Type == "run-start" || i == 0 {
			runs = append(runs, nil)
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], e)
	}
	return runs
}

// BreakdownShares returns the Fig 5.12-style runtime breakdown recorded in
// the run-end event as fractions of the accounted total (gp-fit, acq-max
// minus compile, compile, measure); nil without a run-end breakdown.
func (r *Report) BreakdownShares() map[string]float64 {
	bd, _ := r.Final["breakdown"].(map[string]any)
	if bd == nil {
		return nil
	}
	gp := obs.FieldFloat(bd, "gp_fit_ns")
	acq := obs.FieldFloat(bd, "acq_max_ns")
	comp := obs.FieldFloat(bd, "compile_ns")
	meas := obs.FieldFloat(bd, "measure_ns")
	// Compile time is nested inside the acquisition phase; report the
	// non-compile remainder as "acquisition" like Fig 5.12 does.
	acqOnly := max(acq-comp, 0)
	total := gp + acqOnly + comp + meas
	if total <= 0 {
		return nil
	}
	return map[string]float64{
		"gp-fit":      gp / total,
		"acquisition": acqOnly / total,
		"compile":     comp / total,
		"measure":     meas / total,
	}
}

// PassRow is one row of the per-pass profile a run-end event carries.
type PassRow struct {
	Pass        string
	Invocations int
	Fired       int
	WallNS      int64
	DeltaTotal  int
}

// PassProfile returns the run-end event's per-pass profile in journal order
// (nil when the run was not profiled or has no run-end).
func (r *Report) PassProfile() []PassRow {
	rows, _ := r.Final["pass_profile"].([]any)
	var out []PassRow
	for _, row := range rows {
		m, ok := row.(map[string]any)
		if !ok {
			continue
		}
		out = append(out, PassRow{
			Pass:        obs.FieldString(m, "pass"),
			Invocations: int(obs.FieldFloat(m, "invocations")),
			Fired:       int(obs.FieldFloat(m, "fired")),
			WallNS:      int64(obs.FieldFloat(m, "wall_ns")),
			DeltaTotal:  int(obs.FieldFloat(m, "delta_total")),
		})
	}
	return out
}
