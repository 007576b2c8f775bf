package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"staticest"
	"staticest/internal/server"
)

// tolerance is the relative tolerance on estimate digests: loose
// enough for a solver that reorders arithmetic and moves low digits,
// tight enough that any wrong frequency fails.
const tolerance = 1e-7

// estimators are the block-frequency estimators an estimate response
// carries.
var estimators = []string{"loop", "smart", "markov"}

// digest summarizes a unit's estimates. For each series ("block.<est>"
// is every function's block frequencies in order, "inv.<est>" the
// invocation estimates) it keeps [count, zeros, sum, position-weighted
// sum, max], and for each magnitude band of the positive values (one
// decade, centred on a power of ten) the band's sum and
// position-weighted sum, keyed "<series>@<band>". A wrong value moves
// the sums of its band however small it is beside the largest values,
// and a swap of two values moves a weighted sum.
type digest map[string][]float64

func summarize(d digest, series string, xs []float64) {
	var zeros, sum, proj, hi float64
	for i, x := range xs {
		w := float64(1 + i%7)
		if x == 0 {
			zeros++
		}
		sum += x
		proj += x * w
		if x > hi || i == 0 {
			hi = x
		}
		if x > 0 && !math.IsInf(x, 0) {
			key := fmt.Sprintf("%s@%d", series, int(math.Floor(math.Log10(x)+0.5)))
			if d[key] == nil {
				d[key] = []float64{0, 0}
			}
			d[key][0] += x
			d[key][1] += x * w
		}
	}
	d[series] = []float64{float64(len(xs)), zeros, sum, proj, hi}
}

func digestFuncs(fs []server.FuncEstimate) digest {
	d := digest{}
	for _, est := range estimators {
		var blocks, inv []float64
		for _, f := range fs {
			blocks = append(blocks, f.BlockFreq[est]...)
			inv = append(inv, f.Invocations[est])
		}
		summarize(d, "block."+est, blocks)
		summarize(d, "inv."+est, inv)
	}
	return d
}

// funcEstimates shapes library estimates the way /v1/estimate reports
// them, so that one digest covers both paths.
func funcEstimates(u *staticest.Unit, est *staticest.Estimates) []server.FuncEstimate {
	out := make([]server.FuncEstimate, len(u.Sem.Funcs))
	for fi, fd := range u.Sem.Funcs {
		out[fi] = server.FuncEstimate{
			Name:  fd.Name(),
			Index: fi,
			Invocations: map[string]float64{
				"loop":   est.Inter.CallSite[fi],
				"smart":  est.Inter.Direct[fi],
				"markov": est.InterMarkov.Inv[fi],
			},
			BlockFreq: map[string][]float64{
				"loop":   est.IntraLoop[fi].BlockFreq,
				"smart":  est.IntraSmart[fi].BlockFreq,
				"markov": est.IntraMarkov[fi].BlockFreq,
			},
		}
	}
	return out
}

func closeTo(want, got float64) bool {
	if want == got {
		return true
	}
	return math.Abs(want-got) <= tolerance*math.Max(math.Abs(want), math.Abs(got))
}

// compare reports the first series where got differs from want.
func (want digest) compare(got digest) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, g := want[k], got[k]
		if len(g) != len(w) {
			return fmt.Errorf("%s: got %v, want %v", k, g, w)
		}
		for i := range w {
			if !closeTo(w[i], g[i]) {
				return fmt.Errorf("%s[%d]: got %v, want %v", k, i, g[i], w[i])
			}
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("digest has %d series, want %d", len(got), len(want))
	}
	return nil
}

// runExpect is the recorded outcome of one profiled run.
type runExpect struct {
	Exit   int    `json:"exit"`
	Stdout string `json:"stdout_sha256"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// expectations are the recorded expected outputs: estimate digests of
// every suite program and ladder rung, and the exit code and stdout
// hash of every profiled run.
type expectations struct {
	Suite   map[string]digest    `json:"suite"`
	Ladder  map[string]digest    `json:"ladder"`
	Profile map[string]runExpect `json:"profile"`
}

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (*expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// checkEstimate verifies an /v1/estimate response body against the
// recorded digest of the program.
func checkEstimate(want digest, src, body []byte) error {
	var resp server.EstimateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding estimate response: %w", err)
	}
	if fp := staticest.Fingerprint(src); resp.Fingerprint != fp {
		return fmt.Errorf("fingerprint %.12s, want %.12s", resp.Fingerprint, fp)
	}
	return want.compare(digestFuncs(resp.Functions))
}

// checkChurn verifies the estimate of a generated program that has no
// recorded digest: the fingerprint matches, every block frequency is
// finite and non-negative, and every entry block has frequency 1.
func checkChurn(src, body []byte) error {
	var resp server.EstimateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding estimate response: %w", err)
	}
	if fp := staticest.Fingerprint(src); resp.Fingerprint != fp {
		return fmt.Errorf("fingerprint %.12s, want %.12s", resp.Fingerprint, fp)
	}
	if len(resp.Functions) == 0 {
		return fmt.Errorf("no functions in the estimate")
	}
	for _, f := range resp.Functions {
		for _, est := range estimators {
			bf := f.BlockFreq[est]
			if len(bf) == 0 || math.Abs(bf[0]-1) > 1e-9 {
				return fmt.Errorf("%s %s: entry block frequency is not 1", f.Name, est)
			}
			for b, x := range bf {
				if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
					return fmt.Errorf("%s %s block %d: frequency %v", f.Name, est, b, x)
				}
			}
		}
	}
	return nil
}

// record computes every expected value from the library directly and
// writes them to path.
func record(path string) error {
	e := expectations{Suite: map[string]digest{}, Ladder: map[string]digest{}, Profile: map[string]runExpect{}}
	for _, p := range suitePrograms() {
		u, err := staticest.Compile(p.prog.Name+".c", p.src)
		if err != nil {
			return err
		}
		e.Suite[p.prog.Name] = digestFuncs(funcEstimates(u, u.Estimate()))
	}
	for _, r := range ladder() {
		u, err := staticest.Compile(r.Name+".c", r.Src)
		if err != nil {
			return err
		}
		e.Ladder[r.Name] = digestFuncs(funcEstimates(u, u.Estimate()))
	}
	for _, p := range profilePrograms() {
		u, err := p.Compile()
		if err != nil {
			return err
		}
		for _, in := range p.Inputs {
			res, err := u.Run(staticest.RunOptions{Args: in.Args, Stdin: in.Stdin})
			if err != nil {
				return err
			}
			e.Profile[profileKey(p.Name, in.Name)] = runExpect{Exit: res.ExitCode, Stdout: sha(res.Output)}
		}
	}
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
