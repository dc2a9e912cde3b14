package passes_test

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/passes"
)

// TestUseIndexPassesMatchQuadraticOracles runs loop-sink and slp-vectorizer
// and their quadratic reference implementations (passes.QuadraticOracles) on
// the same module states and requires identical printed IR and stats. The
// states: every benchmark module as built, the state after every prefix of
// the -O3 sequence, and every intermediate state of the random sequences
// TestFuzzBenchModules draws over telecom_gsm.
func TestUseIndexPassesMatchQuadraticOracles(t *testing.T) {
	names := make([]string, 0, len(passes.QuadraticOracles))
	for name := range passes.QuadraticOracles {
		names = append(names, name)
	}
	sort.Strings(names)
	fired := map[string]int{}
	states := 0
	check := func(where string, m *ir.Module) {
		t.Helper()
		states++
		for _, name := range names {
			got, want := m.Clone(), m.Clone()
			gotSt, wantSt := passes.Stats{}, passes.Stats{}
			passes.NewManager().RunOne(got, passes.Lookup(name), gotSt)
			passes.NewManager().RunOne(want, passes.QuadraticOracles[name], wantSt)
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Fatalf("%s: %s stats %v, oracle %v", where, name, gotSt, wantSt)
			}
			if g, w := got.String(), want.String(); g != w {
				t.Fatalf("%s: %s IR differs from oracle\n--- got\n%s\n--- oracle\n%s", where, name, g, w)
			}
			if len(gotSt) > 0 {
				fired[name]++
			}
		}
	}
	// run applies seq one pass at a time, checking the state before each.
	run := func(where string, m *ir.Module, seq []string) {
		mgr := passes.NewManager()
		for i, p := range seq {
			check(where+" before "+p+"@"+strconv.Itoa(i), m)
			mgr.RunOne(m, passes.Lookup(p), passes.Stats{})
		}
		check(where+" after sequence", m)
	}

	o3 := passes.O3Sequence()
	for _, b := range append(bench.CBench(), bench.SPEC()...) {
		for _, width := range []int{2, 4} {
			for _, m := range b.Build(0, width) {
				run(b.Name+"/"+m.Name+" w"+strconv.Itoa(width)+" O3", m, o3)
			}
		}
	}

	// The generator of TestFuzzBenchModules (internal/bench), replayed.
	all := passes.Names()
	rng := rand.New(rand.NewSource(4242))
	mods := bench.ByName("telecom_gsm").Build(0, 2)
	ipo := []string{"inline", "always-inline", "argpromotion", "deadargelim", "mergefunc", "ipsccp", "globaldce", "tailcallelim", "partially-inline-libcalls", "callsite-splitting", "function-attrs", "inferattrs"}
	iters := 120
	if testing.Short() {
		iters = 30
	}
	for it := 0; it < iters; it++ {
		seq := make([]string, 4+rng.Intn(40))
		for i := range seq {
			if rng.Intn(2) == 0 {
				seq[i] = ipo[rng.Intn(len(ipo))]
			} else {
				seq[i] = all[rng.Intn(len(all))]
			}
		}
		for _, m := range mods {
			run("telecom_gsm/"+m.Name+" fuzz#"+strconv.Itoa(it), m.Clone(), seq)
		}
	}

	t.Logf("%d states; passes fired on %v", states, fired)
	for _, name := range names {
		if fired[name] == 0 {
			t.Errorf("%s never fired: the comparison checked only no-op runs", name)
		}
	}
}
