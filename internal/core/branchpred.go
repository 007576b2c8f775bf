package core

import (
	"staticest/internal/cast"
	"staticest/internal/cfg"
	"staticest/internal/ctypes"
	"staticest/internal/fold"
	"staticest/internal/sem"
)

// BranchPrediction is the smart predictor's verdict on one two-way
// branch site.
type BranchPrediction struct {
	// ProbTrue is the predicted probability that the condition is true.
	ProbTrue float64
	// Heuristic names the rule that fired ("loop", "pointer", "call",
	// "opcode", "logical", "store", "none", "const").
	Heuristic string
	// Constant marks conditions decided by constant folding; these are
	// predicted perfectly but excluded from miss-rate scoring.
	Constant  bool
	ConstTrue bool
}

// Taken reports the predicted direction (ties predict false, i.e.
// fall-through).
func (p BranchPrediction) Taken() bool { return p.ProbTrue > 0.5 }

// Predictions holds branch and switch predictions for a whole program,
// indexed by the sem-assigned site IDs.
type Predictions struct {
	Branch []BranchPrediction
	// Switch[siteID][arm] is the probability of each switch arm, in AST
	// case order, with one trailing entry for the implicit default when
	// the source switch has none (matching the CFG and profile layouts).
	Switch [][]float64
}

// Predict runs the branch predictor over every branch and switch site.
func Predict(cp *cfg.Program, conf Config) *Predictions {
	sp := cp.Sem
	pr := &Predictions{
		Branch: make([]BranchPrediction, len(sp.BranchSites)),
		Switch: make([][]float64, len(sp.SwitchSites)),
	}
	noReturn := NoReturnFuncs(cp)
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
	// The facts of every if's two arms, by branch-site ID, from one
	// pass over each function that has an if.
	arms := make([][2]stmtFacts, len(sp.BranchSites))
	walked := make(map[*cast.FuncDecl]bool)
	for _, bs := range sp.BranchSites {
		if _, ok := bs.Stmt.(*cast.If); ok && !walked[bs.Func] {
			walked[bs.Func] = true
			armFacts(bs.Func, isErr, arms)
		}
	}
	for _, bs := range sp.BranchSites {
		pr.Branch[bs.ID] = predictBranch(bs, conf, arms[bs.ID][0], arms[bs.ID][1])
	}
	for _, ss := range sp.SwitchSites {
		pr.Switch[ss.ID] = predictSwitch(ss.Stmt, conf)
	}
	return pr
}

// stmtFacts is what the arm heuristics need to know about a statement
// subtree (the statement, its expressions, and every statement nested
// in it).
type stmtFacts struct {
	errCall    bool // a direct call to an error callee
	storesRead bool // assigns a variable the function reads somewhere
	hasReturn  bool // a return statement
}

func (f stmtFacts) or(g stmtFacts) stmtFacts {
	return stmtFacts{f.errCall || g.errCall, f.storesRead || g.storesRead, f.hasReturn || g.hasReturn}
}

// armFacts records in arms[site] the facts of both arms of every if of
// fd, computing the facts of every statement once, bottom up. Walking
// each arm's subtree anew instead costs the square of the nesting
// depth. The recursion follows cast.WalkStmt.
func armFacts(fd *cast.FuncDecl, isErr func(*cast.Object) bool, arms [][2]stmtFacts) {
	reads := cast.ReadObjects(fd.Body)
	// own collects the facts of one statement's own expressions.
	var own stmtFacts
	inspect := func(x cast.Expr) bool {
		var target cast.Expr
		switch a := x.(type) {
		case *cast.Call:
			if callee := a.Callee(); callee != nil && isErr(callee) {
				own.errCall = true
			}
		case *cast.Assign:
			target = a.L
		case *cast.Unary:
			if a.Op == cast.PreInc || a.Op == cast.PreDec {
				target = a.X
			}
		case *cast.Postfix:
			target = a.X
		}
		// The stores cast.StoredObjects counts.
		if id, ok := target.(*cast.Ident); ok && id.Obj != nil &&
			(id.Obj.Kind == cast.ObjVar || id.Obj.Kind == cast.ObjParam) && reads[id.Obj] {
			own.storesRead = true
		}
		return true
	}
	walk := func(e cast.Expr) { cast.WalkExpr(e, inspect) }
	var visit func(s cast.Stmt) stmtFacts
	visit = func(s cast.Stmt) stmtFacts {
		if s == nil {
			return stmtFacts{}
		}
		own = stmtFacts{}
		cast.EachStmtExpr(s, walk)
		f := own
		_, f.hasReturn = s.(*cast.Return)
		switch x := s.(type) {
		case *cast.Block:
			for _, c := range x.Stmts {
				f = f.or(visit(c))
			}
		case *cast.If:
			then, els := visit(x.Then), visit(x.Else)
			if x.Branch >= 0 {
				arms[x.Branch] = [2]stmtFacts{then, els}
			}
			f = f.or(then).or(els)
		case *cast.While:
			f = f.or(visit(x.Body))
		case *cast.DoWhile:
			f = f.or(visit(x.Body))
		case *cast.For:
			f = f.or(visit(x.Body))
		case *cast.Switch:
			for _, c := range x.Cases {
				for _, cs := range c.Stmts {
					f = f.or(visit(cs))
				}
			}
		case *cast.Labeled:
			f = f.or(visit(x.Stmt))
		}
		return f
	}
	visit(fd.Body)
}

// predictBranch applies the heuristics in order; then and els are the
// facts of an if's two arms (zero for loops and absent arms).
func predictBranch(bs *sem.BranchSite, cfg Config, then, els stmtFacts) BranchPrediction {
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

	// 1. Pointer heuristic: pointers are unlikely to be NULL, and two
	//    pointers are unlikely to be equal.
	if cfg.heuristicEnabled("pointer") {
		if p, ok := pointerHeuristic(cond, hi, lo); ok {
			return BranchPrediction{ProbTrue: p, Heuristic: "pointer"}
		}
	}

	// 2. Error-call heuristic: an arm that calls abort/exit — directly
	//    or through a wrapper that never returns — is unlikely.
	if cfg.heuristicEnabled("call") {
		switch {
		case then.errCall && !els.errCall:
			return BranchPrediction{ProbTrue: lo, Heuristic: "call"}
		case els.errCall && !then.errCall:
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
	if cfg.heuristicEnabled("store") {
		switch {
		case then.storesRead && !els.storesRead:
			return BranchPrediction{ProbTrue: hi, Heuristic: "store"}
		case els.storesRead && !then.storesRead:
			return BranchPrediction{ProbTrue: lo, Heuristic: "store"}
		}
	}

	// 6. Return heuristic (Ball/Larus): an arm that returns early is
	//    unlikely.
	if cfg.heuristicEnabled("return") {
		switch {
		case then.hasReturn && !els.hasReturn:
			return BranchPrediction{ProbTrue: lo, Heuristic: "return"}
		case els.hasReturn && !then.hasReturn:
			return BranchPrediction{ProbTrue: hi, Heuristic: "return"}
		}
	}

	return BranchPrediction{ProbTrue: 0.5, Heuristic: "none"}
}

// pointerHeuristic handles pointer-valued conditions:
//
//	p            -> likely true (non-null)
//	!p           -> likely false
//	p == NULL/q  -> likely false
//	p != NULL/q  -> likely true
func pointerHeuristic(cond cast.Expr, hi, lo float64) (float64, bool) {
	isPtr := func(e cast.Expr) bool {
		t := e.Type()
		if t == nil {
			return false
		}
		return t.Kind == ctypes.Ptr || t.Kind == ctypes.Array || t.Kind == ctypes.Func
	}
	switch x := cond.(type) {
	case *cast.Ident, *cast.Member, *cast.Index, *cast.Call:
		if isPtr(cond) {
			return hi, true
		}
	case *cast.Unary:
		if x.Op == cast.LogNot && isPtr(x.X) {
			return lo, true
		}
	case *cast.Binary:
		if x.Op == cast.Eq || x.Op == cast.Ne {
			lNull := isNullConst(x.X)
			rNull := isNullConst(x.Y)
			lp, rp := isPtr(x.X), isPtr(x.Y)
			ptrCompare := (lp && (rp || rNull)) || (rp && (lp || lNull))
			if ptrCompare {
				if x.Op == cast.Eq {
					return lo, true
				}
				return hi, true
			}
		}
	}
	return 0, false
}

func isNullConst(e cast.Expr) bool {
	c, ok := fold.Expr(e)
	return ok && !c.IsFloat && c.I == 0
}

// opcodeHeuristic implements the Ball/Larus opcode rule: `==` is
// unlikely, `!=` likely, and integer comparisons against zero or a
// negative constant (`x < 0`, `x <= 0`) are unlikely.
func opcodeHeuristic(cond cast.Expr, hi, lo float64) (float64, bool) {
	b, ok := cond.(*cast.Binary)
	if !ok {
		return 0, false
	}
	switch b.Op {
	case cast.Eq:
		return lo, true
	case cast.Ne:
		return hi, true
	case cast.Lt, cast.Le:
		if c, ok := fold.Expr(b.Y); ok && !c.IsFloat && c.I <= 0 {
			return lo, true
		}
	case cast.Gt, cast.Ge:
		if c, ok := fold.Expr(b.Y); ok && !c.IsFloat && c.I <= 0 {
			return hi, true
		}
	}
	return 0, false
}

// predictSwitch assigns arm probabilities, either proportional to the
// number of case labels on each arm or uniform. The implicit default arm
// (when the source has none) gets a single-label weight.
func predictSwitch(sw *cast.Switch, cfg Config) []float64 {
	n := len(sw.Cases)
	hasDefault := false
	for _, c := range sw.Cases {
		if c.IsDefault {
			hasDefault = true
		}
	}
	if !hasDefault {
		n++
	}
	probs := make([]float64, n)
	if cfg.SwitchWeightByLabels {
		total := 0.0
		weights := make([]float64, n)
		for i, c := range sw.Cases {
			w := float64(len(c.Vals))
			if c.IsDefault {
				w++ // the default label itself
			}
			if w == 0 {
				w = 1
			}
			weights[i] = w
			total += w
		}
		if !hasDefault {
			weights[n-1] = 1
			total++
		}
		for i := range probs {
			probs[i] = weights[i] / total
		}
		return probs
	}
	for i := range probs {
		probs[i] = 1 / float64(n)
	}
	return probs
}
