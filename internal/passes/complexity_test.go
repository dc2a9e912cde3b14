package passes

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/ir"
)

// scaledModule builds a function of size linear in s: an s-term add
// reduction over consecutive i64 loads in the entry block (found, matched
// and rejected as unprofitable on the 128-bit target, so slp-vectorizer does
// all of its analysis and no rewrite), then a loop whose preheader holds an
// s-instruction pure chain used only inside the loop (all of it sinks).
func scaledModule(s int) *ir.Module {
	m := &ir.Module{Name: "scaled", TargetVecWidth64: 2}
	bd := ir.NewBuilder(m)
	g := bd.AddGlobal("data", ir.I64T, s+1)
	f := bd.NewFunction("main", ir.I64T, ir.I64T)
	acc := ir.Value(bd.Load(ir.I64T, bd.GEP(g, ir.ConstInt(ir.I64T, 0))))
	for i := 1; i <= s; i++ {
		acc = bd.Bin(ir.OpAdd, acc, bd.Load(ir.I64T, bd.GEP(g, ir.ConstInt(ir.I64T, int64(i)))))
	}
	pre := bd.NewBlock("pre")
	header := bd.NewBlock("loop")
	exit := bd.NewBlock("exit")
	bd.Jmp(pre)

	bd.SetBlock(pre)
	c := ir.Value(f.Params[0])
	for i := 0; i < s; i++ {
		c = bd.Bin(ir.OpXor, c, ir.ConstInt(ir.I64T, int64(i)))
	}
	bd.Jmp(header)

	bd.SetBlock(header)
	iv := bd.Phi(ir.I64T)
	sum := bd.Phi(ir.I64T)
	sum2 := bd.Bin(ir.OpAdd, sum, c)
	next := bd.Bin(ir.OpAdd, iv, ir.ConstInt(ir.I64T, 1))
	bd.Br(bd.ICmp(ir.CmpSLT, next, ir.ConstInt(ir.I64T, 8)), header, exit)
	ir.AddIncoming(iv, ir.ConstInt(ir.I64T, 0), pre)
	ir.AddIncoming(iv, next, header)
	ir.AddIncoming(sum, acc, pre)
	ir.AddIncoming(sum, sum2, header)

	bd.SetBlock(exit)
	bd.Ret(sum2)
	return m
}

// minPassTime is the fastest of three samples, each running pass over four
// fresh copies of m (a sample of several runs rides out scheduler noise on
// a shared host). The collector is off while a sample runs: whether a cycle
// happens to start inside a sample depends on the heap, not on the pass, and
// it made single samples vary by 2x. st receives the stats of one run.
func minPassTime(pass string, m *ir.Module, st Stats) time.Duration {
	const copies = 4
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := time.Duration(1<<63 - 1)
	for r := 0; r < 3; r++ {
		var cs [copies]*ir.Module
		for i := range cs {
			cs[i] = m.Clone()
			ir.MaterializeModule(cs[i])
		}
		runtime.GC()
		t0 := time.Now()
		for i, c := range cs {
			runSt := Stats{}
			Lookup(pass).Run(c, runSt)
			if r == 0 && i == 0 {
				st.Merge(runSt)
			}
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// TestUseIndexPassesScaleLinearly guards loop-sink and slp-vectorizer
// against per-instruction whole-function rescans: quadrupling the function
// may multiply their time by at most 8 (on a 2-vCPU host the use-index
// versions measured 3-6, the rescanning versions 15-23).
func TestUseIndexPassesScaleLinearly(t *testing.T) {
	const s = 500
	small, large := scaledModule(s), scaledModule(4*s)
	for _, pass := range []string{"loop-sink", "slp-vectorizer"} {
		stS, stL := Stats{}, Stats{}
		tS := minPassTime(pass, small, stS)
		tL := minPassTime(pass, large, stL)
		if pass == "loop-sink" && (stS["loop-sink.NumSunk"] != s || stL["loop-sink.NumSunk"] != 4*s) {
			t.Fatalf("loop-sink sank %v / %v, want the whole preheader (%d / %d)", stS, stL, s, 4*s)
		}
		ratio := float64(tL) / float64(tS)
		t.Logf("%s: %v at s=%d, %v at 4s: %.2fx", pass, tS, s, tL, ratio)
		if ratio > 8 {
			t.Errorf("%s: 4x larger function took %.1fx longer (gate: <= 8x)", pass, ratio)
		}
	}
}
