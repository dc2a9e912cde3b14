package aibo

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/acq"
	"repro/internal/gp"
	"repro/internal/heuristic"
)

// TuRBOOptions configure the trust-region BO baseline (§3.2.1): local BO in
// a hyper-rectangle centred at the incumbent, expanding on success streaks
// and shrinking on failure streaks.
type TuRBOOptions struct {
	InitSamples  int
	Candidates   int // Thompson-style candidate pool per iteration
	LenInit      float64
	LenMin       float64
	LenMax       float64
	SuccTol      int
	FailTol      int
	Beta         float64
	GPOpts       gp.Options
	RefitEvery   int
	MaxGPHistory int // fit on the most recent points only (local model)
}

// DefaultTuRBOOptions mirror the reference implementation's shape.
func DefaultTuRBOOptions() TuRBOOptions {
	return TuRBOOptions{
		InitSamples: 50, Candidates: 500,
		LenInit: 0.8, LenMin: 0.5 * math.Pow(2, -7), LenMax: 1.6,
		SuccTol: 3, FailTol: 8, Beta: 1.96,
		GPOpts: gp.DefaultOptions(), RefitEvery: 1, MaxGPHistory: 256,
	}
}

// TuRBOMinimize runs trust-region local BO.
func TuRBOMinimize(f func([]float64) float64, bounds heuristic.Bounds, budget int, opts TuRBOOptions, seed int64) (*Result, error) {
	if budget <= opts.InitSamples {
		return nil, errors.New("aibo: budget must exceed the initial design size")
	}
	d := len(bounds)
	rng := rand.New(rand.NewSource(seed))
	res := &Result{BestY: math.Inf(1)}
	unit := make(heuristic.Bounds, d)
	for i := range unit {
		unit[i] = [2]float64{0, 1}
	}
	fromUnit := func(u []float64) []float64 {
		x := make([]float64, d)
		for i := range x {
			x[i] = bounds[i][0] + u[i]*(bounds[i][1]-bounds[i][0])
		}
		return x
	}
	var X [][]float64
	var Y []float64
	var bestU []float64
	observe := func(u []float64) float64 {
		y := f(fromUnit(u))
		X = append(X, append([]float64(nil), u...))
		Y = append(Y, y)
		res.History = append(res.History, y)
		if y < res.BestY {
			res.BestY = y
			res.BestX = fromUnit(u)
			bestU = append([]float64(nil), u...)
		}
		res.BestTrace = append(res.BestTrace, res.BestY)
		return y
	}
	for i := 0; i < opts.InitSamples; i++ {
		observe(unit.Sample(rng))
	}

	length := opts.LenInit
	succ, fail := 0, 0
	prevLo := -1
	var model *gp.GP
	for it := 0; len(Y) < budget; it++ {
		lo := len(X) - opts.MaxGPHistory
		if lo < 0 {
			lo = 0
		}
		nonRefit := model != nil && opts.RefitEvery > 1 && it%opts.RefitEvery != 0
		if nonRefit && lo == prevLo && len(X)-lo == len(model.X)+1 {
			// The sliding window kept its left edge and gained exactly one
			// observation: extend the factor incrementally instead of the
			// O(n³) frozen refit. Neither path draws randomness.
			if err := model.Append(X[len(X)-1], Y[len(Y)-1]); err != nil {
				return nil, err
			}
		} else {
			o := opts.GPOpts
			if model != nil {
				o.WarmLS, o.WarmSigF, o.WarmNoise = model.LS, model.SigF, model.Noise
				if nonRefit {
					o.AdamSteps = 0
					o.Restarts = 1
				}
			}
			var err error
			model, err = gp.Fit(X[lo:], Y[lo:], o, rng)
			if err != nil {
				return nil, err
			}
		}
		prevLo = lo
		cfg := acq.Config{Kind: acq.UCB, Beta: opts.Beta, Best: model.TransformY(res.BestY)}

		// Trust region around the incumbent, scaled per-dim by the model's
		// length scales (as in TuRBO).
		meanLS := 0.0
		for _, l := range model.LS {
			meanLS += l
		}
		meanLS /= float64(len(model.LS))
		// Draw the whole candidate pool first (the rng stream is the same as
		// scoring each draw immediately), then score it with one batched
		// posterior evaluation.
		cands := make([][]float64, opts.Candidates)
		for c := range cands {
			u := make([]float64, d)
			for i := 0; i < d; i++ {
				w := length * model.LS[i] / meanLS
				if w > opts.LenMax {
					w = opts.LenMax
				}
				lo2 := math.Max(0, bestU[i]-w/2)
				hi2 := math.Min(1, bestU[i]+w/2)
				u[i] = lo2 + rng.Float64()*(hi2-lo2)
			}
			cands[c] = u
		}
		mu := make([]float64, len(cands))
		sig := make([]float64, len(cands))
		model.PredictBatch(cands, mu, sig)
		bestX, bestV := []float64(nil), math.Inf(-1)
		for c, u := range cands {
			if v := cfg.FromPosterior(mu[c], sig[c]); v > bestV {
				bestV, bestX = v, u
			}
		}
		prevBest := res.BestY
		y := observe(bestX)
		if y < prevBest-1e-12 {
			succ++
			fail = 0
		} else {
			fail++
			succ = 0
		}
		if succ >= opts.SuccTol {
			length = math.Min(2*length, opts.LenMax)
			succ = 0
		}
		if fail >= opts.FailTol {
			length /= 2
			fail = 0
			if length < opts.LenMin {
				// Restart the trust region from scratch.
				length = opts.LenInit
				bestU = unit.Sample(rng)
			}
		}
	}
	return res, nil
}
