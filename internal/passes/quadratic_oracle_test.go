package passes

import (
	"sort"

	"repro/internal/ir"
)

// The whole-function-rescan implementations of loop-sink and slp-vectorizer,
// kept unchanged (names suffixed Quadratic) as the reference the use-index
// versions must match: same IR, same positions, same stats
// (TestUseIndexPassesMatchQuadraticOracles).

// QuadraticOracles maps each pass rewritten onto ir.UseIndex to a Pass that
// runs its quadratic reference implementation, registered the way the pass
// itself is.
var QuadraticOracles = map[string]*Pass{
	"loop-sink": {Name: "loop-sink", Preserves: PreserveCFG,
		Run: func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				st.Add("loop-sink.NumSunk", sinkIntoLoopsQuadratic(m, f))
			})
		}},
	"slp-vectorizer": {Name: "slp-vectorizer", Preserves: PreserveCFG,
		Run: func(m *ir.Module, st Stats) {
			forEachDefined(m, func(f *ir.Function) {
				nv, nr := slpVectorizeQuadratic(m, f)
				st.Add("SLP.NumVectorInstructions", nv)
				st.Add("SLP.NumVecReductions", nr)
			})
		}},
}

// sinkIntoLoopsQuadratic moves pure preheader computations used only inside the loop
// into the loop header (the deoptimising inverse of LICM, mirroring LLVM's
// loop-sink for cold loops).
func sinkIntoLoopsQuadratic(m *ir.Module, f *ir.Function) int {
	n := 0
	_, _, li := loopsOf(f)
	for _, l := range li.Loops {
		if l.Preheader == nil {
			continue
		}
		ph := l.Preheader
		for i := len(ph.Instrs) - 2; i >= 0; i-- {
			in := ph.Instrs[i]
			if in.Op == ir.OpPhi || !isPure(m, in) || mayTrap(in) {
				continue
			}
			onlyInLoop := true
			anyUse := false
			for _, ob := range f.Blocks {
				for _, u := range ob.Instrs {
					for oi, op := range u.Ops {
						if op != in {
							continue
						}
						anyUse = true
						// A phi use lives on its incoming edge.
						useBlock := ob
						if u.Op == ir.OpPhi {
							useBlock = u.Blocks[oi]
						}
						if !l.Blocks[useBlock] {
							onlyInLoop = false
						}
					}
				}
			}
			if !anyUse || !onlyInLoop {
				continue
			}
			ph.RemoveAt(i)
			l.Header.InsertBefore(len(l.Header.Phis()), in)
			n++
		}
	}
	return n
}

// slpVectorizeQuadratic finds reduction chains over consecutive memory and rewrites
// them as vector loads + vector multiply + horizontal reduction. This is the
// transformation at the heart of the paper's motivating example (Fig 5.1):
// it only fires when operand widths fit the target SIMD width, so an
// instcombine-widened chain (FlagWidened, i64) is rejected on narrow targets.
func slpVectorizeQuadratic(m *ir.Module, f *ir.Function) (int, int) {
	nVec, nRed := 0, 0
	for _, b := range f.Blocks {
		for {
			vn, rn := slpOneChainQuadratic(m, f, b)
			if rn == 0 && vn == 0 {
				break
			}
			nVec += vn
			nRed += rn
		}
	}
	nVec += slpStoreGroupsQuadratic(m, f)
	return nVec, nRed
}

// slpOneChainQuadratic vectorises the first profitable reduction chain in b.
func slpOneChainQuadratic(m *ir.Module, f *ir.Function, b *ir.Block) (int, int) {
	// Find chain roots: add/fadd not feeding another same-op single-use add.
	for _, root := range b.Instrs {
		if root.Op != ir.OpAdd && root.Op != ir.OpFAdd || root.Ty.IsVector() {
			continue
		}
		feeds := false
		for _, u := range b.Instrs {
			if u.Op == root.Op {
				for _, op := range u.Ops {
					if op == root {
						feeds = true
					}
				}
			}
		}
		if feeds {
			continue
		}
		// Walk the linear chain acc_k = add(acc_{k-1}, t_k).
		var terms []slpTerm
		var chain []*ir.Instr
		cur := root
		for {
			chain = append(chain, cur)
			a, b2 := cur.Ops[0], cur.Ops[1]
			ai, aok := a.(*ir.Instr)
			if aok && ai.Op == cur.Op && ai.Parent() == b && ir.CountUses(f, ai) == 1 {
				terms = append(terms, slpTerm{add: cur, term: b2})
				cur = ai
				continue
			}
			bi, bok := b2.(*ir.Instr)
			if bok && bi.Op == cur.Op && bi.Parent() == b && ir.CountUses(f, bi) == 1 {
				terms = append(terms, slpTerm{add: cur, term: a})
				cur = bi
				continue
			}
			// Chain bottom: one side is the initial accumulator.
			terms = append(terms, slpTerm{add: cur, term: b2})
			break
		}
		if len(terms) < 4 {
			continue
		}
		// Match every term except possibly the chain bottom's accumulator.
		matched := matchSLPTermsQuadratic(m, f, b, terms)
		if len(matched) < 4 {
			continue
		}
		// Group by (baseA, baseB) and look for consecutive offsets.
		sort.Slice(matched, func(i, j int) bool { return matched[i].offA < matched[j].offA })
		group := consecutiveRunQuadratic(matched)
		if len(group) < 4 {
			continue
		}
		vf := 4
		// Profitability: the widest element kind must fit vf lanes on the
		// target (the paper's i64-widening defeats this on 128-bit SIMD).
		widest := ir.I8
		isFloat := false
		for _, t := range group {
			if t.widest > widest {
				widest = t.widest
			}
			if t.add.Ty.Kind.IsFloat() {
				isFloat = true
			}
		}
		if isFloat {
			widest = ir.I64 // f64 chain: 64-bit lanes
			if group[0].mulA != nil && group[0].mulA.Ty.Kind == ir.F32 {
				widest = ir.I32
			}
		}
		if m.VecLanesFor(widest) < vf {
			continue // unprofitable on this target
		}
		group = group[:vf]

		// Build vector IR before the first add of the group. The addresses
		// of the lowest-offset loads must already be defined at that point.
		insertPos := len(b.Instrs)
		for _, t := range group {
			if p := b.IndexOf(t.add); p < insertPos {
				insertPos = p
			}
		}
		addrOK := true
		for _, av := range []ir.Value{group[0].mulA.Ops[0], func() ir.Value {
			if group[0].mulB != nil {
				return group[0].mulB.Ops[0]
			}
			return nil
		}()} {
			ai, isI := av.(*ir.Instr)
			if av == nil || !isI {
				continue
			}
			if ai.Parent() == b && b.IndexOf(ai) >= insertPos {
				addrOK = false
			}
		}
		if !addrOK {
			continue
		}
		elemK := group[0].mulA.Ty.Kind
		vload := func(base ir.Value, firstPtr ir.Value) *ir.Instr {
			ld := &ir.Instr{Op: ir.OpLoad, Ty: ir.Vec(elemK, vf), Ops: []ir.Value{firstPtr}}
			b.InsertBefore(insertPos, ld)
			insertPos++
			return ld
		}
		la := vload(group[0].baseA, group[0].mulA.Ops[0])
		var combined ir.Value
		accTy := group[0].add.Ty
		if group[0].mul != nil {
			lb := vload(group[0].baseB, group[0].mulB.Ops[0])
			var va, vb ir.Value = la, lb
			if group[0].extA != nil {
				se := &ir.Instr{Op: group[0].extA.Op, Ty: ir.Vec(group[0].extA.Ty.Kind, vf), Ops: []ir.Value{la}}
				b.InsertBefore(insertPos, se)
				insertPos++
				va = se
			}
			if group[0].extB != nil {
				se := &ir.Instr{Op: group[0].extB.Op, Ty: ir.Vec(group[0].extB.Ty.Kind, vf), Ops: []ir.Value{lb}}
				b.InsertBefore(insertPos, se)
				insertPos++
				vb = se
			}
			mul := &ir.Instr{Op: group[0].mul.Op, Ty: ir.Vec(group[0].mul.Ty.Kind, vf), Ops: []ir.Value{va, vb}}
			b.InsertBefore(insertPos, mul)
			insertPos++
			combined = mul
		} else {
			combined = la
		}
		// Widen to the accumulator type if needed, then reduce.
		cv := combined.(*ir.Instr)
		if cv.Ty.Kind != accTy.Kind {
			se := &ir.Instr{Op: ir.OpSExt, Ty: ir.Vec(accTy.Kind, vf), Ops: []ir.Value{cv}}
			b.InsertBefore(insertPos, se)
			insertPos++
			cv = se
		}
		red := &ir.Instr{Op: ir.OpVecReduceAdd, Ty: accTy, Ops: []ir.Value{cv}}
		b.InsertBefore(insertPos, red)
		insertPos++

		// Replace the group's terms: the first grouped add absorbs the
		// reduction; the others forward their remaining operand.
		for i, t := range group {
			for oi, op := range t.add.Ops {
				if op == t.term {
					if i == 0 {
						t.add.Ops[oi] = red
					} else {
						// Remove this add from the chain: replace it with its
						// other operand.
						other := t.add.Ops[1-oi]
						replaceWithValue(f, t.add, other)
					}
					break
				}
			}
		}
		// Count vector instructions emitted.
		emitted := 3 // vload + reduce + mul/sext mix, at least
		if group[0].mul != nil {
			emitted = 4
		}
		return emitted, 1
	}
	return 0, 0
}

// matchSLPTermsQuadratic extracts load/mul structure from chain terms.
func matchSLPTermsQuadratic(m *ir.Module, f *ir.Function, b *ir.Block, terms []slpTerm) []slpTerm {
	var out []slpTerm
	stripExt := func(v ir.Value) (*ir.Instr, *ir.Instr) { // (load, ext)
		in, ok := v.(*ir.Instr)
		if !ok || in.Parent() != b {
			return nil, nil
		}
		var ext *ir.Instr
		if in.Op == ir.OpSExt || in.Op == ir.OpZExt {
			if ir.CountUses(f, in) != 1 {
				return nil, nil
			}
			ext = in
			ld, ok2 := in.Ops[0].(*ir.Instr)
			if !ok2 || ld.Parent() != b {
				return nil, nil
			}
			in = ld
		}
		if in.Op != ir.OpLoad || in.Ty.IsVector() || ir.CountUses(f, in) != 1 {
			return nil, nil
		}
		return in, ext
	}
	for _, t := range terms {
		ti, ok := t.term.(*ir.Instr)
		if !ok || ti.Parent() != b || ir.CountUses(f, ti) != 1 {
			continue
		}
		rec := t
		// Peel an outer widening sext around the multiply:
		// sext(mul(...)) — the canonical pre-widened dot-product shape.
		if ti.Op == ir.OpSExt {
			if inner, okI := ti.Ops[0].(*ir.Instr); okI &&
				(inner.Op == ir.OpMul || inner.Op == ir.OpFMul) &&
				inner.Parent() == b && ir.CountUses(f, inner) == 1 {
				ti = inner
			}
		}
		var lA, lB, eA, eB *ir.Instr
		switch {
		case ti.Op == ir.OpMul || ti.Op == ir.OpFMul:
			lA, eA = stripExt(ti.Ops[0])
			lB, eB = stripExt(ti.Ops[1])
			if lA == nil || lB == nil {
				continue
			}
			rec.mul = ti
			rec.widest = ti.Ty.Kind
		case ti.Op == ir.OpLoad:
			lA = ti
			rec.widest = ti.Ty.Kind
		case ti.Op == ir.OpSExt || ti.Op == ir.OpZExt:
			lA, eA = stripExt(ti)
			if lA == nil {
				continue
			}
			rec.widest = ti.Ty.Kind
		default:
			continue
		}
		// Loads must be at (root + sym + const) addresses so consecutive
		// offsets are recognisable even inside unrolled loop bodies.
		boA, symA, offA, okA := symbolicAddr(lA.Ops[0])
		if !okA {
			continue
		}
		rec.mulA, rec.extA, rec.baseA, rec.symA, rec.offA = lA, eA, boA, symA, offA
		if lB != nil {
			boB, symB, offB, okB := symbolicAddr(lB.Ops[0])
			if !okB {
				continue
			}
			rec.mulB, rec.extB, rec.baseB, rec.symB, rec.offB = lB, eB, boB, symB, offB
		}
		// Stores between the loads and the chain would invalidate reordering.
		if blockHasStoreOrCall(m, b) {
			continue
		}
		out = append(out, rec)
	}
	// All terms must share bases and shape.
	if len(out) == 0 {
		return nil
	}
	ref := out[0]
	var same []slpTerm
	for _, t := range out {
		if t.baseA == ref.baseA && t.symA == ref.symA &&
			((t.mul == nil) == (ref.mul == nil)) &&
			(t.mul == nil || (t.baseB == ref.baseB && t.symB == ref.symB)) {
			same = append(same, t)
		}
	}
	return same
}

// consecutiveRunQuadratic returns the longest run of terms with consecutive offA (and
// offB when present), starting from the sorted slice.
func consecutiveRunQuadratic(ts []slpTerm) []slpTerm {
	best := []slpTerm{}
	for i := 0; i < len(ts); i++ {
		run := []slpTerm{ts[i]}
		for j := i + 1; j < len(ts); j++ {
			last := run[len(run)-1]
			if ts[j].offA == last.offA+1 &&
				(ts[j].mul == nil || ts[j].offB == last.offB+1) {
				run = append(run, ts[j])
			} else {
				break
			}
		}
		if len(run) > len(best) {
			best = run
		}
	}
	return best
}

// slpStoreGroupsQuadratic merges 4 consecutive stores of isomorphic computations over
// consecutive loads into vector form.
func slpStoreGroupsQuadratic(m *ir.Module, f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		var stores []*ir.Instr
		for _, in := range b.Instrs {
			if in.Op == ir.OpStore && !in.Ops[0].Type().IsVector() {
				stores = append(stores, in)
			}
		}
		if len(stores) < 4 {
			continue
		}
		type sRec struct {
			st   *ir.Instr
			base ir.Value
			off  int64
		}
		var recs []sRec
		for _, st := range stores {
			bo := baseObject(st.Ops[1])
			if bo == nil {
				continue
			}
			off, ok := constOffsetFrom(bo, st.Ops[1])
			if !ok {
				continue
			}
			recs = append(recs, sRec{st, bo, off})
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].off < recs[j].off })
		for i := 0; i+3 < len(recs); i++ {
			g := recs[i : i+4]
			ok := g[0].base == g[1].base && g[1].base == g[2].base && g[2].base == g[3].base
			for k := 1; k < 4 && ok; k++ {
				if g[k].off != g[0].off+int64(k) {
					ok = false
				}
			}
			if !ok {
				continue
			}
			// Values must be direct loads from consecutive addresses of a
			// single source (simple isomorphism: vectorised copy).
			var loads [4]*ir.Instr
			okLoads := true
			for k := 0; k < 4; k++ {
				ld, isL := g[k].st.Ops[0].(*ir.Instr)
				if !isL || ld.Op != ir.OpLoad || ld.Parent() != b || ir.CountUses(f, ld) != 1 {
					okLoads = false
					break
				}
				loads[k] = ld
			}
			if !okLoads {
				continue
			}
			srcBase := baseObject(loads[0].Ops[0])
			if srcBase == nil || srcBase == g[0].base {
				continue
			}
			off0, ok0 := constOffsetFrom(srcBase, loads[0].Ops[0])
			if !ok0 {
				continue
			}
			okSeq := true
			for k := 1; k < 4; k++ {
				bo := baseObject(loads[k].Ops[0])
				off, okK := constOffsetFrom(srcBase, loads[k].Ops[0])
				if bo != srcBase || !okK || off != off0+int64(k) {
					okSeq = false
					break
				}
			}
			if !okSeq {
				continue
			}
			elemK := loads[0].Ty.Kind
			if m.VecLanesFor(elemK) < 4 {
				continue
			}
			// Rewrite: one vector load + one vector store at the first pair.
			vl := &ir.Instr{Op: ir.OpLoad, Ty: ir.Vec(elemK, 4), Ops: []ir.Value{loads[0].Ops[0]}}
			pos := b.IndexOf(g[0].st)
			b.InsertBefore(pos, vl)
			g[0].st.Ops[0] = vl
			for k := 1; k < 4; k++ {
				b.RemoveAt(b.IndexOf(g[k].st))
			}
			for k := 0; k < 4; k++ {
				if !ir.HasUses(f, loads[k]) {
					if idx := b.IndexOf(loads[k]); idx >= 0 {
						b.RemoveAt(idx)
					}
				}
			}
			n += 2
			break // block mutated; move on
		}
	}
	return n
}
