package main

import (
	"errors"
	"fmt"
	"math"

	mpmb "github.com/uncertain-graphs/mpmb"
)

// checkResult is the correctness gate every timed library result passes:
// no error, complete, every requested trial done, a non-empty best, and
// estimates sorted by descending probability with every P in [0,1].
func checkResult(sp querySpec, res *mpmb.Result, err error) error {
	if err != nil {
		return err
	}
	if res.Partial {
		return errors.New("partial result")
	}
	if res.Trials != sp.Trials || res.TrialsDone != sp.Trials {
		return fmt.Errorf("trials %d/%d done, want %d", res.TrialsDone, res.Trials, sp.Trials)
	}
	ps := make([]float64, len(res.Estimates))
	for i, e := range res.Estimates {
		ps[i] = e.P
	}
	return checkProbs(ps)
}

// checkProbs requires a non-empty, descending list of probabilities.
func checkProbs(ps []float64) error {
	if len(ps) == 0 {
		return errors.New("no maximum butterfly found")
	}
	for i, p := range ps {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("estimate %d has P=%v outside [0,1]", i, p)
		}
		if i > 0 && p > ps[i-1] {
			return fmt.Errorf("estimates not sorted at %d: %v after %v", i, p, ps[i-1])
		}
	}
	return nil
}

// sameResult requires two results of one query to agree bit for bit.
func sameResult(a, b *mpmb.Result) error {
	if a.Method != b.Method || a.Trials != b.Trials || a.PrepTrials != b.PrepTrials ||
		a.TrialsDone != b.TrialsDone || a.Partial != b.Partial {
		return fmt.Errorf("run shape differs: %s %d/%d vs %s %d/%d", a.Method, a.TrialsDone, a.Trials, b.Method, b.TrialsDone, b.Trials)
	}
	if len(a.Estimates) != len(b.Estimates) {
		return fmt.Errorf("%d estimates vs %d", len(a.Estimates), len(b.Estimates))
	}
	for i := range a.Estimates {
		x, y := a.Estimates[i], b.Estimates[i]
		if x.B != y.B || math.Float64bits(x.Weight) != math.Float64bits(y.Weight) ||
			math.Float64bits(x.P) != math.Float64bits(y.P) {
			return fmt.Errorf("estimate %d differs: %v %v %v vs %v %v %v", i, x.B, x.Weight, x.P, y.B, y.Weight, y.P)
		}
	}
	return nil
}

// topK is the number of estimates a daemon result document carries.
const topK = 5

// checkDoc is checkResult for a daemon result document.
func checkDoc(sp querySpec, doc *resultDoc) error {
	if doc.Partial {
		return errors.New("partial result")
	}
	if doc.Trials != sp.Trials {
		return fmt.Errorf("result has %d trials, want %d", doc.Trials, sp.Trials)
	}
	ps := make([]float64, len(doc.Top))
	for i, e := range doc.Top {
		ps[i] = e.P
	}
	return checkProbs(ps)
}

// sameDoc requires a daemon result document to equal the top of the
// library result for the same spec bit for bit; JSON floats round-trip
// exactly.
func sameDoc(doc *resultDoc, res *mpmb.Result) error {
	want := res.TopK(topK)
	if len(doc.Top) != len(want) {
		return fmt.Errorf("daemon returned %d estimates, library %d", len(doc.Top), len(want))
	}
	for i, e := range doc.Top {
		w := want[i]
		if e.U1 != w.B.U1 || e.U2 != w.B.U2 || e.V1 != w.B.V1 || e.V2 != w.B.V2 ||
			math.Float64bits(e.Weight) != math.Float64bits(w.Weight) ||
			math.Float64bits(e.P) != math.Float64bits(w.P) {
			return fmt.Errorf("estimate %d differs: daemon %+v, library %v %v %v", i, e, w.B, w.Weight, w.P)
		}
	}
	return nil
}

// checkEstimates requires one probability in [0,1] per candidate.
func checkEstimates(probs []float64, n int) error {
	if len(probs) != n {
		return fmt.Errorf("%d estimates for %d candidates", len(probs), n)
	}
	for i, p := range probs {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("candidate %d has P=%v outside [0,1]", i, p)
		}
	}
	return nil
}
