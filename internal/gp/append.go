package gp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/numeric"
)

// Append extends the fitted GP with one observation in O(n²) instead of the
// O(n³) a full refit costs. Hyperparameters are kept verbatim; the Cholesky
// factor gains one bordered row (numeric.CholUpdateAppend), the output
// transform is refit over the full raw-target history exactly as Fit would
// (both the Yeo-Johnson lambda and the standardiser depend on every
// observation, so freezing them would drift away from a refit), and alpha,
// the log-determinant and the LML are refreshed against the new factor.
//
// When the bordered matrix is too ill-conditioned for the rank-1 extension —
// e.g. a near-duplicate input under tiny noise drives the Schur complement
// to (numerically) zero — Append falls back to a full jittered
// refactorisation; Refactorized counts those recoveries.
//
// Append consumes no random numbers, so replacing a warm non-refit Fit call
// (AdamSteps=0, Restarts=1) with Append leaves the caller's rng stream
// untouched.
func (g *GP) Append(x []float64, y float64) error {
	if g.chol == nil {
		return errors.New("gp: Append on an unfitted model")
	}
	d := len(g.LS)
	if len(x) != d {
		return fmt.Errorf("gp: Append input has %d dims, model has %d", len(x), d)
	}
	xc := append([]float64(nil), x...)
	sxc := make([]float64, d)
	for dd := range sxc {
		sxc[dd] = xc[dd] / g.LS[dd]
	}
	g.X = append(g.X, xc)
	g.sx = append(g.sx, sxc)
	g.rawY = append(g.rawY, y)
	n := len(g.X)

	g.refreshTargets()

	// Kernel column against the retained inputs, plus the new diagonal. The
	// jitter the last factorisation added must carry over so the appended
	// row is consistent with the retained ones.
	g.scrK = numeric.GrowFloats(g.scrK, n-1)
	k := g.scrK
	for i := 0; i < n-1; i++ {
		k[i] = kernelFromR2(g.Kind, scaledR2(sxc, g.sx[i]), g.SigF)
	}
	diag := g.SigF + g.Noise + g.jitter
	L, err := numeric.CholUpdateAppend(g.chol, k, diag, diag*1e-12)
	if err != nil {
		g.refactorization++
		if err := g.factorize(); err != nil {
			return err
		}
	} else {
		g.chol = L
		g.alpha = numeric.GrowFloats(g.alpha, n)
		numeric.CholSolveInto(L, g.y, g.alpha)
	}
	g.lml = -0.5*numeric.Dot(g.y, g.alpha) - 0.5*numeric.LogDetFromChol(g.chol) - 0.5*float64(n)*math.Log(2*math.Pi)
	return nil
}

// refreshTargets recomputes the transformed targets from the raw history,
// mirroring the transform sequence in Fit.
func (g *GP) refreshTargets() {
	ty := numeric.GrowFloats(g.y, len(g.rawY))
	copy(ty, g.rawY)
	lambda := 1.0
	usedYJ := false
	if g.opts.PowerTransf {
		lambda = numeric.FitYeoJohnson(g.rawY)
		usedYJ = true
		for i, v := range g.rawY {
			ty[i] = numeric.YeoJohnson(v, lambda)
		}
	}
	std := numeric.Standardizer{Mu: 0, Sigma: 1}
	if g.opts.Standardize {
		std = numeric.FitStandardizer(ty)
		for i := range ty {
			ty[i] = std.Apply(ty[i])
		}
	}
	g.y, g.std, g.lambda, g.usedYJ = ty, std, lambda, usedYJ
}

// Clone returns a deep copy of the model, so callers (benchmarks, what-if
// evaluation) can Append without mutating the original.
func (g *GP) Clone() *GP {
	out := *g
	out.X = make([][]float64, len(g.X))
	for i, x := range g.X {
		out.X[i] = append([]float64(nil), x...)
	}
	out.sx = make([][]float64, len(g.sx))
	for i, x := range g.sx {
		out.sx[i] = append([]float64(nil), x...)
	}
	out.LS = append([]float64(nil), g.LS...)
	out.rawY = append([]float64(nil), g.rawY...)
	out.y = append([]float64(nil), g.y...)
	out.alpha = append([]float64(nil), g.alpha...)
	if g.chol != nil {
		out.chol = g.chol.Clone()
	}
	out.scrK = nil
	return &out
}

// PredictBatch computes the transformed-space posterior for every candidate
// in xs, writing means and standard deviations into mu and sigma (length
// len(xs) each). The triangular solves are amortised: candidates are
// partitioned into numeric.ShardSpan blocks and each block runs one
// multi-RHS forward solve that streams the Cholesky factor once across the
// whole block instead of once per candidate. Every candidate column sees
// exactly the arithmetic of a PredictTransformed call, so results are
// bit-identical to the one-at-a-time path.
func (g *GP) PredictBatch(xs [][]float64, mu, sigma []float64) {
	q := len(xs)
	if len(mu) != q || len(sigma) != q {
		panic(fmt.Sprintf("gp: PredictBatch output length %d/%d for %d candidates", len(mu), len(sigma), q))
	}
	n := len(g.X)
	// One set of block buffers serves every block: each block overwrites
	// its n×qb right-hand sides and scaled inputs and clears its sums.
	span := min(q, numeric.ShardSpan)
	rhs := make([]float64, n*span)
	sqRows, sqFlat := make([][]float64, span), make([]float64, span*len(g.LS))
	ssBuf := make([]float64, span)
	for s := 0; s < numeric.NumShards(q); s++ {
		lo, hi := numeric.ShardBounds(q, s)
		qb := hi - lo
		sq := scaleInputsInto(sqRows, sqFlat, xs[lo:hi], g.LS)
		b := &numeric.Matrix{Rows: n, Cols: qb, Data: rhs[:n*qb]}
		ss := ssBuf[:qb]
		clear(ss)
		mub := mu[lo:hi]
		for a := range mub {
			mub[a] = 0
		}
		for i := 0; i < n; i++ {
			bi := b.Row(i)
			sxi := g.sx[i]
			ai := g.alpha[i]
			for a := 0; a < qb; a++ {
				bi[a] = kernelFromR2(g.Kind, scaledR2(sq[a], sxi), g.SigF)
			}
			for a := 0; a < qb; a++ {
				mub[a] += bi[a] * ai
			}
		}
		numeric.SolveLowerBatch(g.chol, b)
		for i := 0; i < n; i++ {
			bi := b.Row(i)
			for a := 0; a < qb; a++ {
				ss[a] += bi[a] * bi[a]
			}
		}
		for a := 0; a < qb; a++ {
			varf := g.SigF + g.Noise - ss[a]
			if varf < 1e-12 {
				varf = 1e-12
			}
			sigma[lo+a] = math.Sqrt(varf)
		}
	}
}
