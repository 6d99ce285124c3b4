package symexec

import (
	"testing"

	"dtaint/internal/expr"
)

// Absolute memory addresses are variables in their own right
// (Section III-B: "DTaint directly uses the memory to present variables,
// such as 0x670B0").
func TestAbsoluteAddressVariables(t *testing.T) {
	sum := analyze(t, `
.arch arm
.func f
  MOV R5, #0x670B0
  MOV R4, #42
  STR R4, [R5, #0]
  LDR R6, [R5, #0]
  STR R6, [SP, #-4]
  BX LR
.endfunc
`, "f", nil)
	// The global def is recorded at the constant address.
	want := expr.Deref(expr.Const(0x670B0)).Key()
	defs := sum.FindDefs(want)
	if len(defs) != 1 {
		t.Fatalf("global def missing: %v", sum.SortedDefKeys())
	}
	if v, ok := defs[0].U.ConstVal(); !ok || v != 42 {
		t.Fatalf("global value = %s", defs[0].U)
	}
	// And the load forwards it into the local store.
	local := expr.Deref(expr.Add(expr.Sym(expr.StackSym), -4)).Key()
	lds := sum.FindDefs(local)
	if len(lds) != 1 {
		t.Fatalf("local def missing")
	}
	if v, ok := lds[0].U.ConstVal(); !ok || v != 42 {
		t.Fatalf("forwarded global = %s", lds[0].U)
	}
}

// Calls to unresolved targets still produce unique return symbols and do
// not derail the analysis.
func TestUnknownCalleeHandled(t *testing.T) {
	sum := analyze(t, `
.arch arm
.func f
  LDR R9, [R0, #0]
  BLX R9
  MOV R4, R0
  STR R4, [SP, #-4]
  BX LR
.endfunc
`, "f", nil)
	if len(sum.Calls) != 1 {
		t.Fatalf("calls = %+v", sum.Calls)
	}
	name, ok := sum.Calls[0].Ret.SymName()
	if !ok || !expr.IsRetSym(name) {
		t.Fatalf("indirect ret = %s", sum.Calls[0].Ret)
	}
}

// Analysis is deterministic: two runs over the same function produce the
// same definition pairs in the same order.
func TestAnalysisDeterministic(t *testing.T) {
	src := `
.arch mips
.import memcpy
.func f
  SUB SP, SP, #0x40
  CMP R4, #10
  BGE big
  STR R4, [SP, #-4]
  B out
big:
  STR R5, [SP, #-4]
out:
  ADD R4, SP, #8
  MOV R5, R4
  MOV R6, #8
  BL memcpy
  BX LR
.endfunc
`
	a := analyze(t, src, "f", nil)
	b := analyze(t, src, "f", nil)
	ka, kb := a.SortedDefKeys(), b.SortedDefKeys()
	if len(ka) != len(kb) {
		t.Fatalf("defpair counts differ: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("defpair %d differs: %s vs %s", i, ka[i], kb[i])
		}
	}
	if a.StatesExplored != b.StatesExplored {
		t.Fatal("state counts differ across runs")
	}
}

// Byte stores are recorded with their size and produce char-typed fields.
func TestByteStoreFieldType(t *testing.T) {
	sum := analyze(t, `
.arch arm
.func f
  MOV R4, #0x3B
  STRB R4, [R0, #5]
  BX LR
.endfunc
`, "f", nil)
	var found bool
	for _, fo := range sum.Fields {
		if name, _ := fo.Base.SymName(); name == "arg0" && fo.Off == 5 && fo.Ty == expr.TypeChar {
			found = true
		}
	}
	if !found {
		t.Fatalf("byte field not observed: %+v", sum.Fields)
	}
	for _, dp := range sum.DefPairs {
		if dp.Size == 1 {
			return
		}
	}
	t.Fatal("byte-sized defpair not recorded")
}

// Conditional branches off an untested flag (no preceding CMP) do not
// record junk constraints.
func TestBranchWithoutCompare(t *testing.T) {
	sum := analyze(t, `
.arch arm
.func f
  BEQ skip
  MOV R4, #1
skip:
  BX LR
.endfunc
`, "f", nil)
	if len(sum.Constraints) != 0 {
		t.Fatalf("constraints = %+v", sum.Constraints)
	}
}

// The return register differs per flavor: MIPS returns in R2.
func TestMIPSReturnRegister(t *testing.T) {
	sum := analyze(t, `
.arch mips
.func f
  MOV R2, #99
  BX LR
.endfunc
`, "f", nil)
	if len(sum.Rets) != 1 {
		t.Fatalf("rets = %v", sum.Rets)
	}
	if v, ok := sum.Rets[0].ConstVal(); !ok || v != 99 {
		t.Fatalf("MIPS ret = %s", sum.Rets[0])
	}
}

// The two successors of a conditional branch start from one state: the
// taken side runs on a copy and the fallthrough side on the original.
// Each side stores its own value to the same stack slot and visits its
// own block; neither store nor visit may show up on the other path.
func TestBranchStatesIndependent(t *testing.T) {
	p, bin := build(t, `
.arch arm
.import probe
.func f
  CMP R0, #64
  BGE big
  MOV R4, #1
  STR R4, [SP, #-4]
  BL probe
  B done
big:
  MOV R4, #2
  STR R4, [SP, #-4]
  BL probe
done:
  BL probe
  BX LR
.endfunc
`)
	fn := p.ByName["f"]
	blockAt := func(addr uint32) int {
		idx := -1
		for _, b := range fn.Blocks {
			if b.Start <= addr {
				idx = b.Index
			}
		}
		return idx
	}
	slot := expr.Add(expr.Sym(expr.StackSym), -4)
	type probeObs struct {
		block  int
		val    int64
		visits []int32
	}
	var probes []probeObs
	oracle := oracleFunc(func(ctx *CallContext) CallEffect {
		v, _ := ctx.Resolve(slot).ConstVal()
		probes = append(probes, probeObs{
			block: blockAt(ctx.Site), val: v,
			visits: append([]int32(nil), ctx.st.visits...),
		})
		return CallEffect{}
	})
	sum := Analyze(fn, bin, oracle, Options{LoopOnce: true})

	defs := sum.FindDefs(expr.Deref(slot).Key())
	if len(defs) != 2 {
		t.Fatalf("want one def of the slot per path, got %v", defs)
	}
	if len(probes) != 4 {
		t.Fatalf("probes = %+v, want 4 (one per branch block, two at the join)", probes)
	}
	// Two probes sit in the taken and fallthrough blocks, two in the join
	// block; a branch block's probe value names its path.
	perBlock := map[int]int{}
	for _, pr := range probes {
		perBlock[pr.block]++
	}
	pathBlock := map[int64]int{}
	for _, pr := range probes {
		if perBlock[pr.block] == 1 {
			pathBlock[pr.val] = pr.block
		}
	}
	taken, fall := pathBlock[2], pathBlock[1]
	if taken == fall || taken <= 0 || fall <= 0 {
		t.Fatalf("branch probes did not see one store each: %+v", probes)
	}
	seen := map[int64]int{}
	for _, pr := range probes {
		own, other := pathBlock[pr.val], taken
		if own == taken {
			other = fall
		}
		if pr.visits[own] != 1 || pr.visits[other] != 0 {
			t.Fatalf("path storing %d: visits[own]=%d visits[other]=%d, want 1 and 0 (%+v)",
				pr.val, pr.visits[own], pr.visits[other], probes)
		}
		seen[pr.val]++
	}
	if seen[1] != 2 || seen[2] != 2 {
		t.Fatalf("probes per path = %v, want two on each", seen)
	}
}
