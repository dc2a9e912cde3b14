// Package gp implements exact Gaussian-process regression from scratch:
// ARD RBF and Matérn-5/2 kernels, Cholesky-based inference, analytic
// log-marginal-likelihood gradients and Adam-based hyperparameter fitting
// with multiple restarts. It is the surrogate model for both the generic
// high-dimensional BO of Chapter 4 (AIBO) and CITROEN's compilation-
// statistics cost model (§5.3.3).
package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/numeric"
)

// KernelKind selects the covariance function.
type KernelKind int

// Supported kernels.
const (
	RBF KernelKind = iota
	Matern52
)

// Options configure fitting.
type Options struct {
	Kernel      KernelKind
	Restarts    int     // hyperparameter optimisation restarts
	AdamSteps   int     // gradient steps per restart
	LearnRate   float64 // Adam step size (on log-params)
	NoiseFloor  float64 // minimum noise variance
	NoiseCeil   float64 // maximum noise variance
	LSFloor     float64 // minimum length scale
	LSCeil      float64 // maximum length scale
	WarmLS      []float64
	WarmSigF    float64
	WarmNoise   float64
	Standardize bool // standardise Y internally (recommended)
	PowerTransf bool // Yeo-Johnson transform Y before standardising
}

// DefaultOptions mirror the paper's settings (§4.3.2): Matérn-5/2 ARD,
// bounded length scales and noise, Yeo-Johnson output transform.
func DefaultOptions() Options {
	return Options{
		Kernel: Matern52, Restarts: 2, AdamSteps: 60, LearnRate: 0.08,
		NoiseFloor: 1e-6, NoiseCeil: 1e-2, LSFloor: 0.005, LSCeil: 20,
		Standardize: true, PowerTransf: true,
	}
}

// GP is a fitted Gaussian process.
type GP struct {
	Kind  KernelKind
	X     [][]float64
	LS    []float64 // per-dimension length scales
	SigF  float64   // signal variance
	Noise float64   // noise variance

	y      []float64 // transformed, standardised targets
	rawY   []float64 // original-unit targets (Append refits the transform)
	std    numeric.Standardizer
	lambda float64 // Yeo-Johnson lambda (1 => identity)
	usedYJ bool

	chol   *numeric.Matrix
	alpha  []float64
	lml    float64
	jitter float64     // diagonal jitter added by the last factorisation
	sx     [][]float64 // inputs pre-divided by LS (one division per element,
	// not per pair); every hot kernel path derives r2 from these, keeping
	// single, batched and appended evaluations bit-identical to each other

	opts            Options   // fitting options, kept for Append
	refactorization int       // Append calls that fell back to a full refactorize
	scrK            []float64 // kernel-column scratch for Append
}

// Refactorized reports how many Append calls hit the jitter-recovery path
// (a full refactorisation instead of the O(n²) rank-1 extension).
func (g *GP) Refactorized() int { return g.refactorization }

// ErrNoData is returned when fitting with fewer than two points.
var ErrNoData = errors.New("gp: need at least 2 observations")

// Fit trains a GP on inputs X (rows) and targets Y.
func Fit(X [][]float64, Y []float64, opts Options, rng *rand.Rand) (*GP, error) {
	n := len(X)
	if n < 2 || len(Y) != n {
		return nil, ErrNoData
	}
	d := len(X[0])
	for _, x := range X {
		if len(x) != d {
			return nil, fmt.Errorf("gp: ragged input rows")
		}
	}

	// Output transform.
	lambda := 1.0
	usedYJ := false
	ty := append([]float64(nil), Y...)
	if opts.PowerTransf {
		lambda = numeric.FitYeoJohnson(Y)
		usedYJ = true
		for i, v := range Y {
			ty[i] = numeric.YeoJohnson(v, lambda)
		}
	}
	std := numeric.Standardizer{Mu: 0, Sigma: 1}
	if opts.Standardize {
		std = numeric.FitStandardizer(ty)
		for i := range ty {
			ty[i] = std.Apply(ty[i])
		}
	}

	g := &GP{
		Kind: opts.Kernel, X: X, y: ty, std: std, lambda: lambda, usedYJ: usedYJ,
		rawY: append([]float64(nil), Y...), opts: opts,
	}

	// Hyperparameter optimisation over log parameters.
	mkInit := func(r int) hypers {
		t := hypers{ls: make([]float64, d), sigf: 1, noise: 1e-3}
		for i := range t.ls {
			t.ls[i] = 0.5
		}
		if r == 0 && opts.WarmLS != nil && len(opts.WarmLS) == d {
			copy(t.ls, opts.WarmLS)
			if opts.WarmSigF > 0 {
				t.sigf = opts.WarmSigF
			}
			if opts.WarmNoise > 0 {
				t.noise = opts.WarmNoise
			}
		} else if r > 0 && rng != nil {
			for i := range t.ls {
				t.ls[i] = math.Exp(rng.NormFloat64()*0.7 - 0.7)
			}
			t.sigf = math.Exp(rng.NormFloat64() * 0.5)
		}
		return t
	}

	restarts := opts.Restarts
	if restarts < 1 {
		restarts = 1
	}
	// Every restart initialisation is drawn from the rng before any
	// optimisation runs, so the random stream a fit consumes never depends
	// on how the optimisation goes.
	inits := make([]hypers, restarts)
	for r := range inits {
		inits[r] = mkInit(r)
	}
	// Scanning the restarts in order with a strict > makes the winner the
	// (highest LML, lowest restart index) pair.
	sc := newGradScratch(n, d)
	best := math.Inf(-1)
	var bestT hypers
	for _, init := range inits {
		t := adamOptimize(g, init, opts, sc)
		if lml, ok := g.computeLML(t.ls, t.sigf, t.noise); ok && lml > best {
			best = lml
			bestT = t
		}
	}
	if math.IsInf(best, -1) {
		// Fall back to defaults with inflated noise.
		bestT = mkInit(0)
		bestT.noise = opts.NoiseCeil
		lml, ok := g.computeLML(bestT.ls, bestT.sigf, bestT.noise)
		if !ok {
			return nil, errors.New("gp: covariance not positive definite")
		}
		best = lml
	}
	g.LS, g.SigF, g.Noise = bestT.ls, bestT.sigf, bestT.noise
	g.lml = best
	if err := g.factorize(); err != nil {
		return nil, err
	}
	return g, nil
}

// hypers is one point in hyperparameter space.
type hypers struct {
	ls    []float64
	sigf  float64
	noise float64
}

// LML returns the log marginal likelihood at the fitted hyperparameters.
func (g *GP) LML() float64 { return g.lml }

// kernelVal computes k(a,b).
func kernelVal(kind KernelKind, a, b, ls []float64, sigf float64) float64 {
	r2 := 0.0
	for i := range a {
		dx := (a[i] - b[i]) / ls[i]
		r2 += dx * dx
	}
	return kernelFromR2(kind, r2, sigf)
}

// kernelFromR2 evaluates the kernel given the scaled squared distance.
func kernelFromR2(kind KernelKind, r2, sigf float64) float64 {
	switch kind {
	case RBF:
		return sigf * math.Exp(-0.5*r2)
	default: // Matern52
		r := math.Sqrt(r2)
		s5r := math.Sqrt(5) * r
		return sigf * (1 + s5r + 5.0/3.0*r2) * math.Exp(-s5r)
	}
}

// scaleInputs divides every coordinate of the rows by the matching length
// scale, one division per element instead of one per pair in the kernel
// loops downstream.
func scaleInputs(rows [][]float64, ls []float64) [][]float64 {
	return scaleInputsInto(make([][]float64, len(rows)), make([]float64, len(rows)*len(ls)), rows, ls)
}

// scaleInputsInto is scaleInputs writing the rows into out and their
// coordinates into flat, which must hold len(rows) and len(rows)*len(ls)
// entries.
func scaleInputsInto(out [][]float64, flat []float64, rows [][]float64, ls []float64) [][]float64 {
	out = out[:len(rows)]
	for i, x := range rows {
		sx := flat[i*len(ls) : (i+1)*len(ls)]
		for dd := range sx {
			sx[dd] = x[dd] / ls[dd]
		}
		out[i] = sx
	}
	return out
}

// scaledR2 returns the squared distance between two pre-scaled points.
func scaledR2(sa, sb []float64) float64 {
	r2 := 0.0
	for dd := range sa {
		dx := sa[dd] - sb[dd]
		r2 += dx * dx
	}
	return r2
}

// buildKInto fills K with the kernel matrix for the training inputs and, when
// r2m is non-nil, stores the scaled squared distances of the lower triangle
// so the gradient loop can reuse them instead of recomputing every pair.
// The lower triangle is computed first, then mirrored to the upper one.
func (g *GP) buildKInto(K, r2m *numeric.Matrix, sx [][]float64, sigf, noise float64) {
	n := len(g.X)
	kind := g.Kind
	for i := 0; i < n; i++ {
		sxi := sx[i]
		ki := K.Row(i)
		var r2row []float64
		if r2m != nil {
			r2row = r2m.Row(i)
		}
		for j := 0; j <= i; j++ {
			r2 := scaledR2(sxi, sx[j])
			ki[j] = kernelFromR2(kind, r2, sigf)
			if r2row != nil {
				r2row[j] = r2
			}
		}
	}
	for i := 0; i < n; i++ {
		ki := K.Row(i)
		for j := i + 1; j < n; j++ {
			ki[j] = K.At(j, i)
		}
	}
	K.AddDiag(noise)
}

// computeLML evaluates the log marginal likelihood.
func (g *GP) computeLML(ls []float64, sigf, noise float64) (float64, bool) {
	K := numeric.NewMatrix(len(g.X), len(g.X))
	g.buildKInto(K, nil, scaleInputs(g.X, ls), sigf, noise)
	L, _, err := numeric.CholeskyWithJitter(K, 1e-10, 6)
	if err != nil {
		return 0, false
	}
	alpha := numeric.CholSolve(L, g.y)
	n := float64(len(g.y))
	lml := -0.5*numeric.Dot(g.y, alpha) - 0.5*numeric.LogDetFromChol(L) - 0.5*n*math.Log(2*math.Pi)
	if math.IsNaN(lml) || math.IsInf(lml, 0) {
		return 0, false
	}
	return lml, true
}

// gradScratch owns the buffers one lmlGrad evaluation needs. One scratch
// serves every Adam step of every restart of a fit.
type gradScratch struct {
	K, R2   *numeric.Matrix // kernel matrix and shared squared distances
	L, Kinv *numeric.Matrix
	alpha   []float64
	part    []float64 // one row block's partial gradient
	grad    []float64
}

func newGradScratch(n, d int) *gradScratch {
	return &gradScratch{
		K:     numeric.NewMatrix(n, n),
		R2:    numeric.NewMatrix(n, n),
		L:     numeric.NewMatrix(n, n),
		Kinv:  numeric.NewMatrix(n, n),
		alpha: make([]float64, n),
		part:  make([]float64, d+2),
		grad:  make([]float64, d+2),
	}
}

// lmlGrad returns the LML and its gradient w.r.t. (log ls_d..., log sigf,
// log noise). The returned slice aliases sc.grad and is valid until the next
// call with the same scratch. The pair loop reuses the squared distances that
// buildKInto already computed (sc.R2) instead of re-deriving them per pair.
// Rows are summed in numeric.ShardSpan blocks, each into its own partial that
// is then added to the gradient in block order; that summation order is part
// of the fitted hyperparameters' bits.
func (g *GP) lmlGrad(ls []float64, sigf, noise float64, sc *gradScratch) (float64, []float64, bool) {
	n := len(g.X)
	d := len(ls)
	sx := scaleInputs(g.X, ls)
	g.buildKInto(sc.K, sc.R2, sx, sigf, noise)
	if _, err := numeric.CholeskyWithJitterInto(sc.L, sc.K, 1e-10, 6); err != nil {
		return 0, nil, false
	}
	numeric.CholSolveInto(sc.L, g.y, sc.alpha)
	// A = alpha alpha^T - K^{-1}; we need tr(A dK/dθ) terms. Compute Kinv
	// once (n independent column solves).
	numeric.CholInverseInto(sc.L, sc.Kinv)
	alpha := sc.alpha

	lml := -0.5*numeric.Dot(g.y, alpha) - 0.5*numeric.LogDetFromChol(sc.L) - 0.5*float64(n)*math.Log(2*math.Pi)
	sqrt5 := math.Sqrt(5)
	kind := g.Kind
	grad, part := sc.grad, sc.part
	for c := range grad {
		grad[c] = 0
	}
	for s := 0; s < numeric.NumShards(n); s++ {
		for c := range part {
			part[c] = 0
		}
		lo, hi := numeric.ShardBounds(n, s)
		for i := lo; i < hi; i++ {
			sxi := sx[i]
			ai := alpha[i]
			r2row := sc.R2.Row(i)
			kinvRow := sc.Kinv.Row(i)
			for j := 0; j <= i; j++ {
				aij := ai*alpha[j] - kinvRow[j]
				w := 1.0
				if i != j {
					w = 2.0 // symmetric off-diagonal contributes twice
				}
				r2 := r2row[j]
				var kval, dkdr2 float64
				switch kind {
				case RBF:
					e := math.Exp(-0.5 * r2)
					kval = sigf * e
					dkdr2 = -0.5 * kval
				default:
					r := math.Sqrt(r2)
					e := math.Exp(-sqrt5 * r)
					kval = sigf * (1 + sqrt5*r + 5.0/3.0*r2) * e
					// dk/dr2 = sigf * e * (-5/6)(1 + sqrt5 r)
					dkdr2 = -sigf * e * (5.0 / 6.0) * (1 + sqrt5*r)
				}
				sxj := sx[j]
				// d r2 / d log ls_dd = -2 (dx_dd)^2
				for dd := 0; dd < d; dd++ {
					dx := sxi[dd] - sxj[dd]
					dK := dkdr2 * (-2 * dx * dx)
					part[dd] += 0.5 * w * aij * dK
				}
				// d k / d log sigf = k
				part[d] += 0.5 * w * aij * kval
				if i == j {
					// d K / d log noise = noise on the diagonal
					part[d+1] += 0.5 * aij * noise
				}
			}
		}
		for c := range grad {
			grad[c] += part[c]
		}
	}
	if math.IsNaN(lml) {
		return 0, nil, false
	}
	return lml, grad, true
}

// adamOptimize runs Adam ascent on the LML over log-parameters.
func adamOptimize(g *GP, init hypers, opts Options, sc *gradScratch) hypers {
	d := len(init.ls)
	theta := make([]float64, d+2)
	for i, v := range init.ls {
		theta[i] = math.Log(v)
	}
	theta[d] = math.Log(init.sigf)
	theta[d+1] = math.Log(init.noise)

	m := make([]float64, d+2)
	v := make([]float64, d+2)
	curLS := make([]float64, d)
	beta1, beta2, eps := 0.9, 0.999, 1e-8
	clamp := func() {
		for i := 0; i < d; i++ {
			theta[i] = numeric.Clamp(theta[i], math.Log(opts.LSFloor), math.Log(opts.LSCeil))
		}
		theta[d] = numeric.Clamp(theta[d], math.Log(1e-3), math.Log(1e3))
		theta[d+1] = numeric.Clamp(theta[d+1], math.Log(opts.NoiseFloor), math.Log(opts.NoiseCeil))
	}
	clamp()
	for step := 1; step <= opts.AdamSteps; step++ {
		for i := range curLS {
			curLS[i] = math.Exp(theta[i])
		}
		_, grad, ok := g.lmlGrad(curLS, math.Exp(theta[d]), math.Exp(theta[d+1]), sc)
		if !ok {
			break
		}
		for i := range theta {
			m[i] = beta1*m[i] + (1-beta1)*grad[i]
			v[i] = beta2*v[i] + (1-beta2)*grad[i]*grad[i]
			mh := m[i] / (1 - math.Pow(beta1, float64(step)))
			vh := v[i] / (1 - math.Pow(beta2, float64(step)))
			theta[i] += opts.LearnRate * mh / (math.Sqrt(vh) + eps)
		}
		clamp()
	}
	out := hypers{ls: make([]float64, d)}
	for i := range out.ls {
		out.ls[i] = math.Exp(theta[i])
	}
	out.sigf = math.Exp(theta[d])
	out.noise = math.Exp(theta[d+1])
	return out
}

// factorize caches the Cholesky factor and alpha for prediction, recording
// the jitter that was needed so Append can keep the bordered diagonal
// consistent with the retained rows.
func (g *GP) factorize() error {
	n := len(g.X)
	K := numeric.NewMatrix(n, n)
	g.sx = scaleInputs(g.X, g.LS)
	g.buildKInto(K, nil, g.sx, g.SigF, g.Noise)
	L, added, err := numeric.CholeskyWithJitter(K, 1e-10, 8)
	if err != nil {
		return err
	}
	g.chol = L
	g.jitter = added
	g.alpha = numeric.CholSolve(L, g.y)
	return nil
}

// Predict returns the posterior mean and standard deviation at x, in the
// ORIGINAL output units (transforms are inverted for the mean; the std is
// scaled back through the standardiser but remains in transformed space for
// the Yeo-Johnson case, which is how acquisition values are computed in
// practice — consistently for all candidates).
func (g *GP) Predict(x []float64) (mu, sigma float64) {
	mu, sigma = g.predictTransformed(x)
	return g.InvertMean(mu), g.std.InvertScale(sigma)
}

// PredictTransformed returns the posterior in the standardised (model)
// space; acquisition functions operate here.
func (g *GP) PredictTransformed(x []float64) (mu, sigma float64) {
	return g.predictTransformed(x)
}

// PredictScratch owns the buffers an allocation-free prediction needs. A
// scratch may be reused across calls but never shared between goroutines.
type PredictScratch struct {
	k, v, sq []float64
}

// PredictInto is Predict with caller-owned scratch: after the first call with
// a given scratch, no allocations happen on this path.
func (g *GP) PredictInto(x []float64, s *PredictScratch) (mu, sigma float64) {
	mu, sigma = g.PredictTransformedInto(x, s)
	return g.InvertMean(mu), g.std.InvertScale(sigma)
}

// PredictTransformedInto is PredictTransformed with caller-owned scratch.
func (g *GP) PredictTransformedInto(x []float64, s *PredictScratch) (mu, sigma float64) {
	n := len(g.X)
	s.k = numeric.GrowFloats(s.k, n)
	s.v = numeric.GrowFloats(s.v, n)
	s.sq = numeric.GrowFloats(s.sq, len(x))
	for dd := range x {
		s.sq[dd] = x[dd] / g.LS[dd]
	}
	k := s.k
	for i := 0; i < n; i++ {
		k[i] = kernelFromR2(g.Kind, scaledR2(s.sq, g.sx[i]), g.SigF)
	}
	mu = numeric.Dot(k, g.alpha)
	numeric.SolveLowerInto(g.chol, k, s.v)
	varf := g.SigF + g.Noise - numeric.Dot(s.v, s.v)
	if varf < 1e-12 {
		varf = 1e-12
	}
	return mu, math.Sqrt(varf)
}

func (g *GP) predictTransformed(x []float64) (float64, float64) {
	var s PredictScratch
	return g.PredictTransformedInto(x, &s)
}

// TransformY maps an original-space observation into the model space (for
// comparing with PredictTransformed outputs, e.g. the incumbent best).
func (g *GP) TransformY(y float64) float64 {
	t := y
	if g.usedYJ {
		t = numeric.YeoJohnson(y, g.lambda)
	}
	return g.std.Apply(t)
}

// InvertMean maps a model-space mean back to original units.
func (g *GP) InvertMean(mu float64) float64 {
	t := g.std.Invert(mu)
	if g.usedYJ {
		t = numeric.YeoJohnsonInverse(t, g.lambda)
	}
	return t
}

// PredictGrad returns the transformed-space posterior mean/std at x plus
// their gradients w.r.t. x (for gradient-based acquisition maximisation).
func (g *GP) PredictGrad(x []float64) (mu float64, dmu []float64, sigma float64, dsigma []float64) {
	n := len(g.X)
	d := len(x)
	k := make([]float64, n)
	dk := make([][]float64, n) // dk[i][dim]
	sqrt5 := math.Sqrt(5)
	for i := 0; i < n; i++ {
		r2 := 0.0
		for dd := 0; dd < d; dd++ {
			dx := (x[dd] - g.X[i][dd]) / g.LS[dd]
			r2 += dx * dx
		}
		var kv, dkdr2 float64
		switch g.Kind {
		case RBF:
			e := math.Exp(-0.5 * r2)
			kv = g.SigF * e
			dkdr2 = -0.5 * kv
		default:
			r := math.Sqrt(r2)
			e := math.Exp(-sqrt5 * r)
			kv = g.SigF * (1 + sqrt5*r + 5.0/3.0*r2) * e
			dkdr2 = -g.SigF * e * (5.0 / 6.0) * (1 + sqrt5*r)
		}
		k[i] = kv
		row := make([]float64, d)
		for dd := 0; dd < d; dd++ {
			// d r2/d x_dd = 2 (x_dd - xi_dd)/ls^2
			row[dd] = dkdr2 * 2 * (x[dd] - g.X[i][dd]) / (g.LS[dd] * g.LS[dd])
		}
		dk[i] = row
	}
	mu = numeric.Dot(k, g.alpha)
	dmu = make([]float64, d)
	for i := 0; i < n; i++ {
		numeric.AxPy(g.alpha[i], dk[i], dmu)
	}
	v := numeric.SolveLower(g.chol, k)
	varf := g.SigF + g.Noise - numeric.Dot(v, v)
	if varf < 1e-12 {
		varf = 1e-12
	}
	sigma = math.Sqrt(varf)
	// dvar/dx = -2 k^T K^-1 dk => use w = K^-1 k.
	w := numeric.SolveUpperT(g.chol, v)
	dsigma = make([]float64, d)
	for i := 0; i < n; i++ {
		numeric.AxPy(-w[i], dk[i], dsigma)
	}
	numeric.Scale(dsigma, 1/sigma)
	return mu, dmu, sigma, dsigma
}

// PredictJoint returns the joint posterior (mean vector and covariance) of q
// candidate points in transformed space, for Monte-Carlo batch acquisition.
func (g *GP) PredictJoint(xs [][]float64) ([]float64, *numeric.Matrix) {
	q := len(xs)
	n := len(g.X)
	mu := make([]float64, q)
	vs := make([][]float64, q)
	for a := 0; a < q; a++ {
		k := make([]float64, n)
		for i := 0; i < n; i++ {
			k[i] = kernelVal(g.Kind, xs[a], g.X[i], g.LS, g.SigF)
		}
		mu[a] = numeric.Dot(k, g.alpha)
		vs[a] = numeric.SolveLower(g.chol, k)
	}
	cov := numeric.NewMatrix(q, q)
	for a := 0; a < q; a++ {
		for b := 0; b <= a; b++ {
			prior := kernelVal(g.Kind, xs[a], xs[b], g.LS, g.SigF)
			v := prior - numeric.Dot(vs[a], vs[b])
			if a == b {
				v += g.Noise
				if v < 1e-12 {
					v = 1e-12
				}
			}
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return mu, cov
}
