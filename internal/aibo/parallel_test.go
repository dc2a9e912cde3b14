package aibo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/acq"
	"repro/internal/gp"
	"repro/internal/heuristic"
	"repro/internal/synth"
)

// traceDigest hashes the float bits of a result's History and BestX and its
// per-iteration Diags winners.
func traceDigest(r *Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, v := range r.History {
		put(v)
	}
	for _, v := range r.BestX {
		put(v)
	}
	for _, d := range r.Diags {
		h.Write([]byte(d.Winner))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAIBOWorkersDeterminism pins the AIBO trace (GP fit restarts, batched
// screening, acquisition-maximiser restarts) to the digest it had when the
// surrogate still fanned out across workers, where it was identical for
// every worker count.
func TestAIBOWorkersDeterminism(t *testing.T) {
	f := synth.Rastrigin()
	b := boxFor(f, 4)
	o := fastOpts()
	o.TopN = 3
	o.GPOpts.Restarts = 2
	res, err := Minimize(f.Eval, b, 30, o, 9)
	if err != nil {
		t.Fatal(err)
	}
	const want = "91c082b971fc40da70e5e74f511047b48f7ff4f8210ed86f6f6b74794d8170c2"
	if got := traceDigest(res); got != want {
		t.Fatalf("AIBO trace digest %s, want %s", got, want)
	}
}

// TestTuRBOWorkersDeterminism is the same pin for the trust-region baseline.
func TestTuRBOWorkersDeterminism(t *testing.T) {
	f := synth.Ackley()
	b := boxFor(f, 5)
	o := DefaultTuRBOOptions()
	o.InitSamples = 10
	o.Candidates = 60
	o.GPOpts.AdamSteps = 15
	o.GPOpts.Restarts = 1
	o.RefitEvery = 3
	res, err := TuRBOMinimize(f.Eval, b, 30, o, 4)
	if err != nil {
		t.Fatal(err)
	}
	const want = "f71e31626f8575a861917b7acf109c883925ec7666d97ae66f0868e63470c9e1"
	if got := traceDigest(res); got != want {
		t.Fatalf("TuRBO trace digest %s, want %s", got, want)
	}
}

func screenFixture(t testing.TB, n, d int) (*gp.GP, acq.Config) {
	rng := rand.New(rand.NewSource(31))
	f := synth.Griewank()
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.Float64()
		}
		Y[i] = f.Eval(X[i])
	}
	o := gp.DefaultOptions()
	o.AdamSteps = 10
	o.Restarts = 1
	model, err := gp.Fit(X, Y, o, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return model, acq.Config{Kind: acq.UCB, Beta: 1.96, Best: model.TransformY(Y[0])}
}

// TestScreenTopMatchesSort checks the heap screen against a sort-based
// reference: with all AF values distinct (guaranteed by the continuous
// fixture), the survivors are exactly the topN candidates by AF, returned in
// arrival order.
func TestScreenTopMatchesSort(t *testing.T) {
	model, cfg := screenFixture(t, 40, 3)
	rng := rand.New(rand.NewSource(77))
	raw := make([][]float64, 120)
	for i := range raw {
		raw[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	af := make([]float64, len(raw))
	for i, x := range raw {
		af[i] = cfg.Value(model, x)
	}
	for _, topN := range []int{1, 3, 7, len(raw), len(raw) + 5} {
		idx := make([]int, len(raw))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return af[idx[a]] > af[idx[b]] })
		keep := topN
		if keep > len(raw) {
			keep = len(raw)
		}
		want := append([]int(nil), idx[:keep]...)
		sort.Ints(want)

		got := screenTop(model, cfg, raw, topN)
		if len(got) != keep {
			t.Fatalf("topN=%d: %d survivors, want %d", topN, len(got), keep)
		}
		for i, x := range got {
			if &x[0] != &raw[want[i]][0] {
				t.Fatalf("topN=%d: survivor %d is not raw[%d]", topN, i, want[i])
			}
		}
	}
}

// BenchmarkAcqMaximize times the TopN×strategies gradient-ascent restarts of
// one AIBO iteration.
func BenchmarkAcqMaximize(b *testing.B) {
	model, cfg := screenFixture(b, 128, 8)
	box := make(heuristic.Bounds, 8)
	for i := range box {
		box[i] = [2]float64{0, 1}
	}
	rng := rand.New(rand.NewSource(2))
	starts := make([][]float64, 30)
	for i := range starts {
		starts[i] = box.Sample(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x0 := range starts {
			maximizeFrom(model, cfg, box, x0, 20, 0.03)
		}
	}
}
