package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStdMedian(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if Mean(v) != 2.5 {
		t.Fatalf("mean = %v", Mean(v))
	}
	if !almostEq(StdDev(v), math.Sqrt(1.25), 1e-12) {
		t.Fatalf("std = %v", StdDev(v))
	}
	if Median(v) != 2.5 {
		t.Fatalf("median = %v", Median(v))
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median wrong")
	}
}

func TestMinMax(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5}
	if m, i := Min(v); m != 1 || i != 1 {
		t.Fatalf("min = %v@%d", m, i)
	}
	if m, i := Max(v); m != 5 || i != 4 {
		t.Fatalf("max = %v@%d", m, i)
	}
	if _, i := Min(nil); i != -1 {
		t.Fatal("empty min should return -1")
	}
}

func TestGeoMean(t *testing.T) {
	if !almostEq(GeoMean([]float64{1, 4}), 2, 1e-12) {
		t.Fatal("geomean wrong")
	}
}

func TestArgSort(t *testing.T) {
	idx := ArgSort([]float64{3, 1, 2})
	if idx[0] != 1 || idx[1] != 2 || idx[2] != 0 {
		t.Fatalf("argsort = %v", idx)
	}
}

func TestNormalCDFPDF(t *testing.T) {
	if !almostEq(NormalCDF(0), 0.5, 1e-12) {
		t.Fatal("cdf(0) != 0.5")
	}
	if !almostEq(NormalCDF(1.96), 0.975, 1e-3) {
		t.Fatalf("cdf(1.96) = %v", NormalCDF(1.96))
	}
	if !almostEq(NormalPDF(0), 1/math.Sqrt(2*math.Pi), 1e-12) {
		t.Fatal("pdf(0) wrong")
	}
}

func TestStandardizerRoundTrip(t *testing.T) {
	v := []float64{10, 20, 30}
	s := FitStandardizer(v)
	for _, x := range v {
		if !almostEq(s.Invert(s.Apply(x)), x, 1e-9) {
			t.Fatal("round trip failed")
		}
	}
	z := make([]float64, len(v))
	for i, x := range v {
		z[i] = s.Apply(x)
	}
	if !almostEq(Mean(z), 0, 1e-12) || !almostEq(StdDev(z), 1, 1e-9) {
		t.Fatalf("standardized mean/std = %v/%v", Mean(z), StdDev(z))
	}
}

func TestYeoJohnsonRoundTripProperty(t *testing.T) {
	f := func(x float64, lraw float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e3 {
			return true
		}
		lambda := math.Mod(math.Abs(lraw), 4) - 2 // in [-2,2)
		y := YeoJohnson(x, lambda)
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return true
		}
		back := YeoJohnsonInverse(y, lambda)
		return almostEq(back, x, 1e-6*(1+math.Abs(x)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestYeoJohnsonSpecialCases(t *testing.T) {
	if !almostEq(YeoJohnson(1, 0), math.Log(2), 1e-12) {
		t.Fatal("lambda=0 branch wrong")
	}
	if !almostEq(YeoJohnson(-1, 2), -math.Log(2), 1e-12) {
		t.Fatal("lambda=2 negative branch wrong")
	}
	// Identity at lambda=1 for x>=0.
	if !almostEq(YeoJohnson(3, 1), 3, 1e-12) {
		t.Fatal("lambda=1 should be identity-ish")
	}
}

// TestFitYeoJohnsonNegativeMirror checks the sign(x) factor of the
// likelihood's Jacobian term: YJ(-x, 2-λ) = -YJ(x, λ), so negating the data
// must mirror the fitted λ about 1.
func TestFitYeoJohnsonNegativeMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := make([]float64, 60)
	neg := make([]float64, len(v))
	for i := range v {
		v[i] = 1 + 3*rng.Float64()
		neg[i] = -v[i]
	}
	want := 2 - FitYeoJohnson(v)
	if got := FitYeoJohnson(neg); math.Abs(got-want) > 1e-4 {
		t.Fatalf("FitYeoJohnson(-v) = %f, want 2 - FitYeoJohnson(v) = %f", got, want)
	}
}

func TestFitYeoJohnsonReducesSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := make([]float64, 200)
	for i := range v {
		v[i] = math.Exp(rng.NormFloat64()) // lognormal: strongly right-skewed
	}
	lambda := FitYeoJohnson(v)
	skew := func(x []float64) float64 {
		m, s := Mean(x), StdDev(x)
		acc := 0.0
		for _, xi := range x {
			d := (xi - m) / s
			acc += d * d * d
		}
		return acc / float64(len(x))
	}
	tv := make([]float64, len(v))
	for i, x := range v {
		tv[i] = YeoJohnson(x, lambda)
	}
	if math.Abs(skew(tv)) >= math.Abs(skew(v)) {
		t.Fatalf("transform did not reduce skew: %v -> %v (lambda=%v)", skew(v), skew(tv), lambda)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	v := []int{1, 2, 3, 4, 5}
	Shuffle(rng, v)
	seen := map[int]bool{}
	for _, x := range v {
		seen[x] = true
	}
	if len(seen) != 5 {
		t.Fatalf("shuffle lost elements: %v", v)
	}
}
