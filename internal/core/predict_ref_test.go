package core

import (
	"staticest/internal/cast"
	"staticest/internal/cfg"
	"staticest/internal/fold"
	"staticest/internal/sem"
)

// ReferencePredict is the branch predictor as it was before Predict
// computed statement facts in one pass per function: each heuristic
// walks the subtree of each if arm anew, which costs the square of the
// nesting depth. It is kept, verbatim, only as the reference Predict's
// verdicts must match bit for bit.
var ReferencePredict = referencePredict

func referencePredict(cp *cfg.Program, conf Config) *Predictions {
	sp := cp.Sem
	pr := &Predictions{
		Branch: make([]BranchPrediction, len(sp.BranchSites)),
		Switch: make([][]float64, len(sp.SwitchSites)),
	}
	noReturn := NoReturnFuncs(cp)
	// Per-function read sets for the store heuristic, computed lazily.
	readSets := make(map[*cast.FuncDecl]map[*cast.Object]bool)
	readSet := func(fd *cast.FuncDecl) map[*cast.Object]bool {
		rs, ok := readSets[fd]
		if !ok {
			rs = cast.ReadObjects(fd.Body)
			readSets[fd] = rs
		}
		return rs
	}
	// isErr recognizes transitively no-return callees plus the classic
	// error-ish names.
	isErr := func(callee *cast.Object) bool {
		if calleeNoReturn(callee, noReturn) {
			return true
		}
		switch callee.Name {
		case "error", "fatal", "panic_error":
			return true
		}
		return false
	}
	for _, bs := range sp.BranchSites {
		pr.Branch[bs.ID] = referencePredictBranch(bs, conf, readSet, isErr)
	}
	for _, ss := range sp.SwitchSites {
		pr.Switch[ss.ID] = predictSwitch(ss.Stmt, conf)
	}
	return pr
}

func referencePredictBranch(bs *sem.BranchSite, cfg Config,
	readSet func(*cast.FuncDecl) map[*cast.Object]bool,
	isErr func(*cast.Object) bool) BranchPrediction {

	cond := bs.Stmt.CondExpr()
	if cond != nil {
		if v, isConst := fold.BoolCond(cond); isConst {
			p := 0.0
			if v {
				p = 1.0
			}
			return BranchPrediction{ProbTrue: p, Heuristic: "const", Constant: true, ConstTrue: v}
		}
	}
	hi, lo := cfg.TakenProb, 1-cfg.TakenProb

	// Loop continuation branches: predict "keep looping".
	if bs.Stmt.IsLoop() {
		return BranchPrediction{ProbTrue: cfg.loopContinueProb(), Heuristic: "loop"}
	}

	ifStmt, _ := bs.Stmt.(*cast.If)

	// 1. Pointer heuristic: pointers are unlikely to be NULL, and two
	//    pointers are unlikely to be equal.
	if cfg.heuristicEnabled("pointer") {
		if p, ok := pointerHeuristic(cond, hi, lo); ok {
			return BranchPrediction{ProbTrue: p, Heuristic: "pointer"}
		}
	}

	// 2. Error-call heuristic: an arm that calls abort/exit — directly
	//    or through a wrapper that never returns — is unlikely.
	if cfg.heuristicEnabled("call") && ifStmt != nil {
		thenErr := ifStmt.Then != nil && cast.ContainsCallMatching(ifStmt.Then, isErr)
		elseErr := ifStmt.Else != nil && cast.ContainsCallMatching(ifStmt.Else, isErr)
		switch {
		case thenErr && !elseErr:
			return BranchPrediction{ProbTrue: lo, Heuristic: "call"}
		case elseErr && !thenErr:
			return BranchPrediction{ProbTrue: hi, Heuristic: "call"}
		}
	}

	// 3. Opcode heuristic: equality is unlikely; comparisons against
	//    zero/negative bounds are unlikely.
	if cfg.heuristicEnabled("opcode") {
		if p, ok := opcodeHeuristic(cond, hi, lo); ok {
			return BranchPrediction{ProbTrue: p, Heuristic: "opcode"}
		}
	}

	// 4. Logical-operator heuristic: conjunctions are less likely to be
	//    true; disjunctions more likely.
	if cfg.heuristicEnabled("logical") {
		if l, ok := cond.(*cast.Logical); ok {
			if l.AndAnd {
				return BranchPrediction{ProbTrue: lo, Heuristic: "logical"}
			}
			return BranchPrediction{ProbTrue: hi, Heuristic: "logical"}
		}
	}

	// 5. Store heuristic: when one arm writes variables that are read
	//    elsewhere in the function, that arm is more likely.
	if cfg.heuristicEnabled("store") && ifStmt != nil {
		rs := readSet(bs.Func)
		thenStores := referenceArmStoresRead(ifStmt.Then, rs)
		elseStores := referenceArmStoresRead(ifStmt.Else, rs)
		switch {
		case thenStores && !elseStores:
			return BranchPrediction{ProbTrue: hi, Heuristic: "store"}
		case elseStores && !thenStores:
			return BranchPrediction{ProbTrue: lo, Heuristic: "store"}
		}
	}

	// 6. Return heuristic (Ball/Larus): an arm that returns early is
	//    unlikely.
	if cfg.heuristicEnabled("return") && ifStmt != nil {
		thenRet := ifStmt.Then != nil && cast.ContainsReturn(ifStmt.Then)
		elseRet := ifStmt.Else != nil && cast.ContainsReturn(ifStmt.Else)
		switch {
		case thenRet && !elseRet:
			return BranchPrediction{ProbTrue: lo, Heuristic: "return"}
		case elseRet && !thenRet:
			return BranchPrediction{ProbTrue: hi, Heuristic: "return"}
		}
	}

	return BranchPrediction{ProbTrue: 0.5, Heuristic: "none"}
}

func referenceArmStoresRead(arm cast.Stmt, reads map[*cast.Object]bool) bool {
	if arm == nil {
		return false
	}
	for o := range cast.StoredObjects(arm) {
		if reads[o] {
			return true
		}
	}
	return false
}
