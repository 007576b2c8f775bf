package check

import (
	"fmt"

	"staticest"
	"staticest/internal/gen"
)

// Oracles names every check Run knows, in execution order.
var Oracles = []string{"invariants", "markov-dense", "sparse", "bc", "inline", "reuse", "metamorphic", "ingest", "server", "batch"}

// Options selects which oracles Run executes.
type Options struct {
	// Oracles is the subset to run (nil = all). Names as in Oracles.
	Oracles []string
	// ServerEvery runs the (comparatively slow) server-backed oracles
	// ("server" and "batch") only on every k-th program of a batch; 0
	// means every program.
	ServerEvery int
	// Inject mutates the computed estimates before checking — the
	// deliberately-broken-estimator hook used to prove the harness can
	// catch a real bug (see BreakLogical).
	Inject func(*staticest.Estimates)
	// Obs, when non-nil, records each checked program's compile and run
	// under the usual pipeline spans and counters (cmd/stress wires the
	// common -trace/-metrics flags to it). Nil disables recording.
	Obs *staticest.Observer
}

func (o Options) wants(name string) bool {
	if len(o.Oracles) == 0 {
		return true
	}
	for _, n := range o.Oracles {
		if n == name || n == "all" {
			return true
		}
	}
	return false
}

// Run compiles one program and runs the selected oracles, returning
// every failure (nil means the program passes).
func Run(name string, src []byte, opt Options) []Failure {
	u, err := staticest.CompileObs(name, src, opt.Obs)
	if err != nil {
		return []Failure{{Oracle: "compile", Detail: err.Error()}}
	}
	var out []Failure
	est := u.Estimate()
	if opt.Inject != nil {
		opt.Inject(est)
	}
	if opt.wants("invariants") {
		out = append(out, Invariants(u, est)...)
		res, err := u.Run(staticest.RunOptions{})
		if err != nil {
			// Labeled distinctly from "invariants": a shrink predicate
			// matching on the invariants oracle must not accept
			// candidates that merely fail to execute (e.g. an empty
			// program with no main).
			out = append(out, Failure{Oracle: "run", Detail: err.Error()})
		} else {
			out = append(out, ProfileInvariants(u, res)...)
		}
	}
	if opt.wants("markov-dense") {
		out = append(out, MarkovDenseOracle(u, est)...)
	}
	if opt.wants("sparse") {
		out = append(out, SparseOracle(u)...)
	}
	if opt.wants("bc") {
		out = append(out, BytecodeOracle(u)...)
	}
	if opt.wants("inline") {
		out = append(out, InlineOracle(u)...)
	}
	if opt.wants("reuse") {
		out = append(out, ReuseOracle(u, staticest.RunOptions{})...)
	}
	if opt.wants("metamorphic") {
		out = append(out, MetamorphicOracle(name, src, u, est)...)
	}
	if opt.wants("ingest") {
		out = append(out, IngestOracle(u)...)
	}
	if opt.wants("server") {
		out = append(out, ServerOracle(name, src)...)
	}
	if opt.wants("batch") {
		out = append(out, BatchOracle(name, src)...)
	}
	return out
}

// ProgramFailure ties a batch failure back to the (seed, index) that
// regenerates it.
type ProgramFailure struct {
	Index    int // 1-based program index within the seed's sequence
	Seed     int64
	Src      []byte
	Failures []Failure
}

func (pf ProgramFailure) String() string {
	return fmt.Sprintf("seed %d program %d: %d failure(s), first: %s",
		pf.Seed, pf.Index, len(pf.Failures), pf.Failures[0])
}

// RunAll generates n programs from seed and checks each one, honoring
// opt.ServerEvery for the server oracle. It returns every failing
// program; an empty slice is a clean batch.
func RunAll(seed int64, n int, opt Options) []ProgramFailure {
	g := gen.New(seed)
	var out []ProgramFailure
	for i := 1; i <= n; i++ {
		src := g.Program()
		po := opt
		if opt.ServerEvery > 1 && i%opt.ServerEvery != 0 {
			names := effectiveOracles(po)
			if po.wants("server") {
				names = without(names, "server")
			}
			if po.wants("batch") {
				names = without(names, "batch")
			}
			po.Oracles = names
		}
		name := fmt.Sprintf("gen_s%d_p%d.c", seed, i)
		if fs := Run(name, src, po); len(fs) > 0 {
			out = append(out, ProgramFailure{Index: i, Seed: seed, Src: src, Failures: fs})
		}
	}
	return out
}

func effectiveOracles(o Options) []string {
	if len(o.Oracles) == 0 {
		return Oracles
	}
	for _, n := range o.Oracles {
		if n == "all" {
			return Oracles
		}
	}
	return o.Oracles
}

func without(names []string, drop string) []string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		if n != drop {
			out = append(out, n)
		}
	}
	return out
}

// BreakLogical flips every logical-heuristic branch prediction in the
// estimates — the deliberately injected estimator bug the acceptance
// test shrinks. Returns whether any prediction was flipped.
func BreakLogical(est *staticest.Estimates) bool {
	flipped := false
	for i := range est.Pred.Branch {
		if est.Pred.Branch[i].Heuristic == "logical" {
			est.Pred.Branch[i].ProbTrue = 1 - est.Pred.Branch[i].ProbTrue
			flipped = true
		}
	}
	return flipped
}
