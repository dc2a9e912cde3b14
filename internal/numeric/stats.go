package numeric

import (
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// StdDev returns the population standard deviation of v.
func StdDev(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	s := 0.0
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}

// Median returns the median of v without modifying it.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Min returns the minimum value and its index (-1 for empty input).
func Min(v []float64) (float64, int) {
	if len(v) == 0 {
		return math.Inf(1), -1
	}
	best, idx := v[0], 0
	for i, x := range v[1:] {
		if x < best {
			best, idx = x, i+1
		}
	}
	return best, idx
}

// Max returns the maximum value and its index (-1 for empty input).
func Max(v []float64) (float64, int) {
	if len(v) == 0 {
		return math.Inf(-1), -1
	}
	best, idx := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, idx = x, i+1
		}
	}
	return best, idx
}

// GeoMean returns the geometric mean of strictly positive values.
func GeoMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// ArgSort returns indices that would sort v ascending.
func ArgSort(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	return idx
}

// NormalCDF is the standard normal cumulative distribution function.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalPDF is the standard normal probability density function.
func NormalPDF(x float64) float64 {
	return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
}

// Standardizer rescales values to zero mean and unit variance.
type Standardizer struct {
	Mu, Sigma float64
}

// FitStandardizer computes the mean/std of v (std floored at 1e-12).
func FitStandardizer(v []float64) Standardizer {
	s := StdDev(v)
	if s < 1e-12 {
		s = 1e-12
	}
	return Standardizer{Mu: Mean(v), Sigma: s}
}

// Apply standardizes x.
func (s Standardizer) Apply(x float64) float64 { return (x - s.Mu) / s.Sigma }

// Invert undoes the standardization of z.
func (s Standardizer) Invert(z float64) float64 { return z*s.Sigma + s.Mu }

// InvertScale undoes only the scaling (for standard deviations).
func (s Standardizer) InvertScale(z float64) float64 { return z * s.Sigma }

// YeoJohnson applies the Yeo-Johnson power transform with parameter lambda,
// which reduces skewness of objective values before GP fitting (§4.3.2).
func YeoJohnson(x, lambda float64) float64 {
	switch {
	case x >= 0 && lambda != 0:
		return (math.Pow(x+1, lambda) - 1) / lambda
	case x >= 0:
		return math.Log1p(x)
	case lambda != 2:
		return -(math.Pow(-x+1, 2-lambda) - 1) / (2 - lambda)
	default:
		return -math.Log1p(-x)
	}
}

// YeoJohnsonInverse inverts the Yeo-Johnson transform.
func YeoJohnsonInverse(y, lambda float64) float64 {
	switch {
	case y >= 0 && lambda != 0:
		return math.Pow(lambda*y+1, 1/lambda) - 1
	case y >= 0:
		return math.Expm1(y)
	case lambda != 2:
		return 1 - math.Pow(-(2-lambda)*y+1, 1/(2-lambda))
	default:
		return -math.Expm1(-y)
	}
}

// FitYeoJohnson picks lambda in [-2, 2] by golden-section maximisation of the
// normal log-likelihood of the transformed values, whose Jacobian term is
// (lambda-1)·Σ sign(x)·log(|x|+1).
func FitYeoJohnson(v []float64) float64 {
	ll := func(lambda float64) float64 {
		t := make([]float64, len(v))
		for i, x := range v {
			t[i] = YeoJohnson(x, lambda)
		}
		sd := StdDev(t)
		if sd < 1e-12 {
			return math.Inf(-1)
		}
		l := -float64(len(v)) * math.Log(sd)
		for _, x := range v {
			l += (lambda - 1) * math.Copysign(math.Log1p(math.Abs(x)), x)
		}
		return l
	}
	lo, hi := -2.0, 2.0
	phi := (math.Sqrt(5) - 1) / 2
	a, b := hi-phi*(hi-lo), lo+phi*(hi-lo)
	fa, fb := ll(a), ll(b)
	for i := 0; i < 40; i++ {
		if fa > fb {
			hi, b, fb = b, a, fa
			a = hi - phi*(hi-lo)
			fa = ll(a)
		} else {
			lo, a, fa = a, b, fb
			b = lo + phi*(hi-lo)
			fb = ll(b)
		}
	}
	return (lo + hi) / 2
}

// SampleNormalVec fills a length-n vector with i.i.d. standard normals.
func SampleNormalVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// Shuffle permutes v in place using rng.
func Shuffle[T any](rng *rand.Rand, v []T) {
	rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
}
