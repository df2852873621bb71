package bench

import (
	"runtime"
	"sync"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/core"
)

// MemoryCell is Fig. 13 for one (dataset, method) pair: memory consumption
// split into the network itself and the method's working set.
type MemoryCell struct {
	Dataset string
	Method  Method
	// GraphBytes approximates the resident size of the input network
	// (edges plus both CSR indexes).
	GraphBytes uint64
	// PeakExtraBytes is the peak live-heap growth observed while the
	// method ran (sampled), i.e. the method's own working set.
	PeakExtraBytes uint64
}

// RunMemory reproduces Fig. 13: peak memory of each method on each
// dataset. MC-VP runs a reduced trial count (memory is per-trial cyclic,
// so a handful of trials reaches the peak), mirroring how the paper's
// figure includes MC-VP even where its full run timed out.
func RunMemory(opt Options) ([]MemoryCell, error) {
	ds, err := loadDatasets(opt)
	if err != nil {
		return nil, err
	}
	var out []MemoryCell
	for _, d := range ds {
		g := d.G
		graphBytes := uint64(g.NumEdges()) * (32 /*Edge*/ + 2*8 /*two CSR halves*/)
		for _, m := range AllMethods {
			var runErr error
			peak := measurePeakHeap(func() {
				switch m {
				case MCVP:
					// Memory peaks within the first trial; a deadline keeps
					// dense datasets from running for hours. An interrupted
					// run returns a partial result and still observed the
					// peak working set up to that point.
					deadline := time.Now().Add(opt.TimeBudget / 4)
					_, runErr = core.MCVP(g, core.MCVPOptions{
						Trials:    3,
						Seed:      opt.Seed,
						Interrupt: func() bool { return time.Now().After(deadline) },
					})
				case OS:
					trials := opt.SampleTrials
					if trials > 200 {
						trials = 200 // peak reached within a few trials
					}
					_, runErr = core.OS(g, core.OSOptions{Trials: trials, Seed: opt.Seed})
				case OLSKL:
					_, runErr = core.OLS(g, core.OLSOptions{
						PrepTrials: opt.PrepTrials, Trials: opt.SampleTrials,
						Seed: opt.Seed, UseKarpLuby: true,
						KL: core.KLOptions{Mu: opt.Mu},
					})
				case OLS:
					_, runErr = core.OLS(g, core.OLSOptions{
						PrepTrials: opt.PrepTrials, Trials: opt.SampleTrials,
						Seed: opt.Seed,
					})
				}
			})
			if runErr != nil {
				return nil, runErr
			}
			out = append(out, MemoryCell{
				Dataset:        d.Name,
				Method:         m,
				GraphBytes:     graphBytes,
				PeakExtraBytes: peak,
			})
		}
	}
	return out, nil
}

// measurePeakHeap runs fn while sampling the live heap and returns the
// peak growth over the pre-run baseline. The sampler polls HeapAlloc at a
// millisecond cadence; short-lived spikes between polls can be missed,
// which is acceptable for the comparative purpose of Fig. 13.
func measurePeakHeap(fn func()) uint64 {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(time.Millisecond)
		defer ticker.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > base.HeapAlloc && ms.HeapAlloc-base.HeapAlloc > peak {
					peak = ms.HeapAlloc - base.HeapAlloc
				}
			}
		}
	}()
	fn()
	close(stop)
	wg.Wait()
	// One final reading after fn returns, before any GC, once the
	// sampler has stopped writing peak.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > base.HeapAlloc && ms.HeapAlloc-base.HeapAlloc > peak {
		peak = ms.HeapAlloc - base.HeapAlloc
	}
	return peak
}
