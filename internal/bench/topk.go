package bench

import (
	"fmt"
	"io"
	"math"

	"github.com/uncertain-graphs/mpmb/internal/core"
)

// TopKAgreement measures, per dataset, how closely the OLS estimators
// agree with OS on the butterflies OS ranks highest. Because rating-style
// datasets contain huge classes of butterflies tied at the maximum weight
// with near-identical probabilities, set-identity of top-k lists is
// meaningless there; the well-defined quantity is the per-butterfly
// probability gap. This experiment extends the paper's evaluation (its
// Section VII introduces top-k without evaluating it).
type TopKAgreement struct {
	Dataset string
	K       int
	// MeanAbsGapOLS / MeanAbsGapKL: mean |P̂_method(B) − P̂_OS(B)| over
	// OS's top-k butterflies.
	MeanAbsGapOLS float64
	MeanAbsGapKL  float64
	// MissingOLS / MissingKL: how many of OS's top-k the method has no
	// estimate for at all (not in its candidate set).
	MissingOLS int
	MissingKL  int
}

// RunTopKAgreement reproduces the top-k consistency experiment with
// k = 10 on every selected dataset.
func RunTopKAgreement(opt Options) ([]TopKAgreement, error) {
	const k = 10
	ds, err := loadDatasets(opt)
	if err != nil {
		return nil, err
	}
	var out []TopKAgreement
	for _, d := range ds {
		osRes, err := core.OS(d.G, core.OSOptions{Trials: opt.SampleTrials, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		cands, err := core.PrepareCandidates(d.G, opt.PrepTrials, opt.Seed, core.OSOptions{})
		if err != nil {
			return nil, err
		}
		olsRes, err := core.OLSSamplingPhaseParallel(cands, core.OLSOptions{
			PrepTrials: opt.PrepTrials, Trials: opt.SampleTrials, Seed: opt.Seed,
		}, 1)
		if err != nil {
			return nil, err
		}
		klRes, err := core.OLSSamplingPhaseParallel(cands, core.OLSOptions{
			PrepTrials: opt.PrepTrials, Trials: opt.SampleTrials, Seed: opt.Seed,
			UseKarpLuby: true, KL: core.KLOptions{Mu: opt.Mu},
		}, 1)
		if err != nil {
			return nil, err
		}

		row := TopKAgreement{Dataset: d.Name, K: k}
		top := osRes.TopK(k)
		if len(top) == 0 {
			out = append(out, row)
			continue
		}
		nOLS, nKL := 0, 0
		for _, e := range top {
			if got, ok := olsRes.Lookup(e.B); ok {
				row.MeanAbsGapOLS += math.Abs(got.P - e.P)
				nOLS++
			} else {
				row.MissingOLS++
			}
			if got, ok := klRes.Lookup(e.B); ok {
				row.MeanAbsGapKL += math.Abs(got.P - e.P)
				nKL++
			} else {
				row.MissingKL++
			}
		}
		if nOLS > 0 {
			row.MeanAbsGapOLS /= float64(nOLS)
		}
		if nKL > 0 {
			row.MeanAbsGapKL /= float64(nKL)
		}
		out = append(out, row)
	}
	return out, nil
}

// PrintTopKAgreement renders the top-k agreement table.
func PrintTopKAgreement(w io.Writer, opt Options) error {
	rows, err := RunTopKAgreement(opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Top-k agreement (extension): |P̂ − P̂_OS| over OS's top-%d, N=%d\n", 10, opt.SampleTrials)
	fmt.Fprintf(w, "%-10s %14s %12s %14s %12s\n", "dataset", "ols mean gap", "ols missing", "kl mean gap", "kl missing")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %14.4f %12d %14.4f %12d\n",
			r.Dataset, r.MeanAbsGapOLS, r.MissingOLS, r.MeanAbsGapKL, r.MissingKL)
	}
	return nil
}
