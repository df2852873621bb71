package core

import (
	"fmt"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/randx"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// listedTally is the reference the pair tally is checked against: trials
// lo..hi of an ExecOS job over g, each maximum set listed in full by a
// kernel with the pair tally off and credited with addMaxSet. It also
// returns how many of those trials found a butterfly.
func listedTally(g *bigraph.Graph, seed uint64, lo, hi int) (*probAccumulator, int) {
	idx := snapshotFor(g).kernel(g, OSOptions{})
	defer releaseKernel(idx)
	root := randx.New(seed)
	acc, hits := newProbAccumulator(), 0
	var sMB butterfly.MaxSet
	for u := lo; u <= hi; u++ {
		idx.runTrialSeeded(root, uint64(u), &sMB)
		if !sMB.Empty() {
			hits++
			acc.addMaxSet(&sMB)
		}
	}
	return acc, hits
}

// requireSameTally fails unless got lists want's butterflies with the same
// counts and weights, in the same order.
func requireSameTally(t testing.TB, label string, got, want []ButterflyCount) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d is %+v, reference %+v", label, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference %d", label, len(got), len(want))
	}
}

// execOS runs units 1..n of an ExecOS job over g on workers local workers,
// continuing ck when it is set.
func execOS(t testing.TB, g *bigraph.Graph, seed uint64, n, workers int, interrupt func() bool, ck *Checkpoint) *ExecResult {
	t.Helper()
	x, err := execute(nil, workers, &ExecJob{Kind: ExecOS, Graph: g, Seed: seed, Units: n, Interrupt: interrupt}, ck)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// osRunHeader is the checkpoint header of an os run of n trials.
func osRunHeader(seed uint64, n int) Checkpoint {
	return Checkpoint{Method: "os", Seed: seed, Trials: n}
}

// fanGraph is K_{2,10} with unit weights: one endpoint pair whose ten
// middles all tie, so a trial's maximum set is that pair's top class and,
// once four of its middles are present, is credited through pair bits
// alone.
func fanGraph() *bigraph.Graph {
	b := bigraph.NewBuilder(2, 10)
	for u := 0; u < 2; u++ {
		for v := 0; v < 10; v++ {
			b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), 1, 0.9)
		}
	}
	return b.Build()
}

// pairTrials runs trials 1..n over g on a kernel with the pair tally on
// and counts the trials that recorded a class, and those of them whose
// listed maximum set stayed empty.
func pairTrials(g *bigraph.Graph, seed uint64, n int) (recorded, pairOnly int) {
	idx := snapshotFor(g).kernel(g, OSOptions{})
	defer releaseKernel(idx)
	idx.pairs.on = true
	root, sink := randx.New(seed), newProbAccumulator()
	var sMB butterfly.MaxSet
	for u := 1; u <= n; u++ {
		idx.runTrialSeeded(root, uint64(u), &sMB)
		if idx.pairs.hit {
			recorded++
			if sMB.Empty() {
				pairOnly++
			}
		}
		idx.pairs.endTrial(sink)
	}
	idx.pairs.flush(sink)
	return recorded, pairOnly
}

// TestPairTallyFixturesUsePairs guards the fixtures below: on tieGraph
// the pair path must take part in most trials, and on fanGraph it must
// take whole trials, or the tests would pass on a kernel that never
// records a class.
func TestPairTallyFixturesUsePairs(t *testing.T) {
	if recorded, _ := pairTrials(tieGraph(), 3, 200); recorded < 100 {
		t.Fatalf("tieGraph: %d of 200 trials recorded a class", recorded)
	}
	if _, pairOnly := pairTrials(fanGraph(), 3, 200); pairOnly < 100 {
		t.Fatalf("fanGraph: %d of 200 trials were credited through pair bits alone", pairOnly)
	}
}

// TestPairTallyWindowBoundaries runs ExecOS jobs whose lengths sit on and
// around the 64-trial window, on one and two workers, and requires the
// job state to equal the fully listed tally.
func TestPairTallyWindowBoundaries(t *testing.T) {
	g := tieGraph()
	const seed = 21
	for _, n := range []int{63, 64, 65, 128, 129} {
		want, _ := listedTally(g, seed, 1, n)
		for _, workers := range []int{1, 2} {
			x := execOS(t, g, seed, n, workers, nil, nil)
			if x.Done != n {
				t.Fatalf("%d trials, %d workers: done %d", n, workers, x.Done)
			}
			requireSameTally(t, fmt.Sprintf("%d trials, %d workers", n, workers), x.Export().Counts, want.snapshot())
		}
	}
}

// TestPairTallyInterruptResume cuts a tie-heavy run at a trial that is not
// a window boundary: the partial state must equal the listed tally of the
// completed prefix, and its checkpoint must resume, on either worker
// count, to the listed tally of the whole run.
func TestPairTallyInterruptResume(t *testing.T) {
	g := tieGraph()
	const seed, n = 23, 200
	want, _ := listedTally(g, seed, 1, n)
	for _, c := range []struct{ cut, resume int }{{1, 2}, {2, 1}} {
		// One worker polls before each trial, so 100 polls end the prefix
		// at trial 100; two workers poll before each 16-trial chunk they
		// claim, so 5 polls end it at trial 80.
		polls := int64(100)
		if c.cut == 2 {
			polls = 5
		}
		part := execOS(t, g, seed, n, c.cut, interruptAfter(polls), nil)
		if part.Done == n || part.Done%pairWindow == 0 {
			t.Fatalf("cut on %d workers at trial %d, want a cut inside a window", c.cut, part.Done)
		}
		prefix, _ := listedTally(g, seed, 1, part.Done)
		label := fmt.Sprintf("cut at %d on %d workers", part.Done, c.cut)
		requireSameTally(t, label, part.Export().Counts, prefix.snapshot())
		ck := reloadCheckpoint(t, part.checkpoint(osRunHeader(seed, n), g))
		full := execOS(t, g, seed, n, c.resume, nil, ck)
		requireSameTally(t, label+", resumed on "+fmt.Sprint(c.resume), full.Export().Counts, want.snapshot())
	}
}

// TestPairTallySupervisedStop stops a supervised segment mid-window: the
// segment's partial Result must equal the listed tally of its trials on
// either worker count, and resuming it must finish the run exactly.
func TestPairTallySupervisedStop(t *testing.T) {
	g := tieGraph()
	const seed, n, stop = 25, 180, 100
	prefix, _ := listedTally(g, seed, 1, stop)
	whole, _ := listedTally(g, seed, 1, n)
	for _, workers := range []int{1, 2} {
		seg, err := OSParallel(g, OSOptions{Trials: n, Seed: seed, stop: stop}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !seg.Partial || seg.TrialsDone != stop {
			t.Fatalf("%d workers: segment partial=%v done %d, want a partial run of %d", workers, seg.Partial, seg.TrialsDone, stop)
		}
		assertSameEstimates(t, seg.Estimates, prefix.resultNorm("os", n, stop).Estimates)
		res, err := OSParallel(g, OSOptions{Trials: n, Seed: seed, Resume: reloadCheckpoint(t, seg.Checkpoint)}, workers)
		if err != nil {
			t.Fatal(err)
		}
		assertCompleteMatch(t, res, whole.result("os", n))
	}
}

// TestPairTallySpanPassesCheck runs a range of a tie-heavy job on two
// workers, as a distributed worker runs a leased span: its export must
// pass the span rules — no zero count, no butterfly twice — and equal the
// listed tally of the range.
func TestPairTallySpanPassesCheck(t *testing.T) {
	g := tieGraph()
	const seed, start, end = 27, 37, 230
	r, err := (&LocalExecutor{Workers: 2}).ExecuteTrials(&ExecJob{Kind: ExecOS, Graph: g, Seed: seed, Units: end, Start: start})
	if err != nil {
		t.Fatal(err)
	}
	p := r.Export()
	if err := p.Check(ExecOS, r.Done-r.Start, -1, true); err != nil {
		t.Fatalf("span %d..%d: %v", r.Start+1, r.Done, err)
	}
	want, _ := listedTally(g, seed, start+1, end)
	requireSameTally(t, "span", p.Counts, want.snapshot())
}

// TestPairTallyHitsCounted checks the telemetry counters: a trial whose
// maximum set was credited through pair bits alone still counts as a hit,
// so on both fixtures, on one and two workers, the hit counter equals the
// number of trials that found a butterfly.
func TestPairTallyHitsCounted(t *testing.T) {
	const seed, n = 3, 200
	for name, g := range map[string]*bigraph.Graph{"tieGraph": tieGraph(), "fanGraph": fanGraph()} {
		_, hits := listedTally(g, seed, 1, n)
		for _, workers := range []int{1, 2} {
			reg := telemetry.NewRegistry()
			if _, err := OSParallel(g, OSOptions{Trials: n, Seed: seed, Probe: &telemetry.Probe{Reg: reg, Method: "os"}}, workers); err != nil {
				t.Fatal(err)
			}
			if m := reg.Snapshot(); m.Trials != n || m.TrialHits != int64(hits) {
				t.Fatalf("%s, %d workers: %d trials, %d hits; want %d and %d", name, workers, m.Trials, m.TrialHits, n, hits)
			}
		}
	}
}

// FuzzPairCredit checks the pair-credited tally against the listed one
// on tie-heavy graphs: K_{6,6} less the edges the input drops, with
// weights of 1 and 1.5, over trial counts that cross the 64-trial window.
// Each run goes through ExecOS on one and on three workers, and through an
// interrupt cut on one worker count resumed on the other; every state
// must equal the listed tally of its trials.
func FuzzPairCredit(f *testing.F) {
	f.Add(uint64(1), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint64(77), []byte{0, 9, 18, 27, 36, 45})
	f.Add(uint64(130), []byte{200, 100, 50, 25, 12, 6, 3, 1, 255, 254})
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		const side = 6
		b := bigraph.NewBuilder(side, side)
		for slot := 0; slot < side*side; slot++ {
			by := byte(slot*29 + 7)
			if slot < len(raw) {
				by = raw[slot]
			}
			if by%9 == 0 {
				continue // not in the backbone
			}
			w := 1 + 0.5*float64(by%5/3)
			p := probGrid[1+int(by/16)%(len(probGrid)-1)]
			b.MustAddEdge(bigraph.VertexID(slot%side), bigraph.VertexID(slot/side), w, p)
		}
		g := b.Build()
		n := 60 + int(seed%80)
		want, _ := listedTally(g, seed, 1, n)
		for _, workers := range []int{1, 3} {
			x := execOS(t, g, seed, n, workers, nil, nil)
			requireSameTally(t, fmt.Sprintf("%d workers", workers), x.Export().Counts, want.snapshot())
		}
		cut, resume, polls := 1, 3, int64(1+seed%uint64(n))
		if seed%2 == 1 {
			cut, resume, polls = 3, 1, int64(1+seed%4)
		}
		part := execOS(t, g, seed, n, cut, interruptAfter(polls), nil)
		prefix, _ := listedTally(g, seed, 1, part.Done)
		requireSameTally(t, fmt.Sprintf("cut at %d", part.Done), part.Export().Counts, prefix.snapshot())
		ck := reloadCheckpoint(t, part.checkpoint(osRunHeader(seed, n), g))
		full := execOS(t, g, seed, n, resume, nil, ck)
		requireSameTally(t, fmt.Sprintf("resumed from %d", part.Done), full.Export().Counts, want.snapshot())
	})
}
