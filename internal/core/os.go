package core

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/possible"
	"github.com/uncertain-graphs/mpmb/internal/randx"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// OSOptions configures Ordering Sampling (Algorithm 2).
type OSOptions struct {
	// Trials is N_os, the number of sampled possible worlds. Must be > 0.
	Trials int
	// Seed makes the run reproducible.
	Seed uint64
	// DisableEdgePrune turns off the Edge Ordering prune of Section V-B
	// (break once w(e)+w̄ < w_max). Ablation only.
	DisableEdgePrune bool
	// KeepAllAngles stores every angle per endpoint pair instead of only
	// the top-2 weight classes of Section V-C (Table II). Ablation only;
	// results are identical, time and space are not.
	KeepAllAngles bool
	// DropA2 deliberately BREAKS the angle table: only the largest angle
	// weight class (A1) is maintained and the second class (A2) is
	// discarded, so butterflies formed from the top angle plus a strictly
	// lighter one are silently lost. This is NOT an ablation — it changes
	// results. It exists solely as fault injection for the statistical
	// conformance harness (internal/statcheck), which must demonstrably
	// fail when an estimator is biased. Never set it elsewhere.
	DropA2 bool
	// Interrupt, if non-nil, is polled between trials; when it returns
	// true the run stops and returns a partial Result over the completed
	// trials with a resumable Checkpoint attached. OS trials are short, so
	// between-trial granularity suffices (unlike MC-VP's mid-trial hook).
	// A multi-worker run polls the hook concurrently from every worker,
	// so it must be safe for concurrent use there (a context-derived hook
	// is).
	Interrupt func() bool
	// Resume restores the accumulator from a checkpoint written by an
	// earlier cancelled run with identical options; the run continues at
	// trial Resume.Done+1 and the final Result is bit-identical to an
	// uninterrupted run.
	Resume *Checkpoint
	// Probe, if non-nil, receives run telemetry: trial counts, the edge
	// scanned/pruned split of the Section V-B prune, and running leader
	// estimates, batched at probeFlushEvery-trial (or per-chunk) cadence.
	// A nil Probe costs one predictable branch per trial and changes no
	// Result bit.
	Probe *telemetry.Probe
	// Executor, if non-nil, replaces the default in-process LocalExecutor
	// with an explicit TrialExecutor (e.g. a distributed fan-out).
	// Per-trial streams derive from (Seed, trial index), so any
	// conforming executor returns bit-identical results.
	Executor TrialExecutor

	// stop, when past the resumed prefix, ends the run after that trial
	// with a partial Result: a supervised segment.
	stop int
}

// kernel returns the options' kernel knobs alone — the pruning and
// ablation flags a trial kernel (local or remote) is built with.
func (o OSOptions) kernel() OSOptions {
	return OSOptions{DisableEdgePrune: o.DisableEdgePrune, KeepAllAngles: o.KeepAllAngles, DropA2: o.DropA2}
}

// OS is Ordering Sampling (Section V, Algorithm 2). Like MC-VP it samples
// N_os possible worlds, but each trial searches for the maximum weighted
// butterflies directly:
//
//   - Edge Ordering (V-B): edges are processed in descending weight order
//     and the trial stops as soon as w(e) + w̄ < w_max, where w̄ is the sum
//     of the three globally largest edge weights — no later edge can
//     complete a butterfly beating w_max.
//   - Angle Ordering (V-C): per endpoint pair (u_i, u_k) only the largest
//     (A1) and second-largest (A2) angle weight classes are retained,
//     following the update cases of Table II.
//   - Fast Butterfly Creating (V-D): w_max is maintained online from
//     A1/A2, and only butterflies of weight exactly w_max are ever
//     materialized.
//
// Edges are Bernoulli-sampled lazily in weight order, which draws from
// exactly the same distribution as sampling the whole world up front
// (edges are independent) while never touching edges behind the prune.
//
// The trial loop runs on the flat-memory kernel (see osIndex): a SoA edge
// snapshot with precomputed Bernoulli thresholds, a generation-stamped
// open-addressing angle table, and a worker-local derived stream — all
// draw-for-draw identical to the frozen seed implementation in osref.go,
// which the equivalence tests compare against bit for bit.
//
// OS is OSParallel with one worker.
func OS(g *bigraph.Graph, opt OSOptions) (*Result, error) {
	return OSParallel(g, opt, 1)
}

// OSParallel runs Ordering Sampling with trials distributed over workers
// goroutines (≤ 1 means one), or over opt.Executor when one is set.
// Trials are independent and each trial's random stream is derived from
// (Seed, trial index), so the estimates are bit-identical for every
// worker count and executor — parallelism changes wall-clock time, never
// results. Cancellation (opt.Interrupt) yields a partial Result with a
// resumable Checkpoint, and opt.Resume continues such a checkpoint.
func OSParallel(g *bigraph.Graph, opt OSOptions, workers int) (*Result, error) {
	return osRun(g, Anchor{}, opt, workers)
}

// osRun is OSParallel, and AnchoredOSParallel when the anchor is set: one
// ExecOS job continuing opt.Resume, its estimates normalized over the
// completed trials. A global run cut short carries a resumable
// checkpoint; an anchored run, which has no resume path, carries none.
func osRun(g *bigraph.Graph, a Anchor, opt OSOptions, workers int) (*Result, error) {
	if opt.Trials <= 0 {
		return nil, fmt.Errorf("core: OS requires Trials > 0, got %d", opt.Trials)
	}
	run := Checkpoint{Method: "os", Seed: opt.Seed, Trials: opt.Trials}
	if err := opt.Resume.resumeCheck(run, g); err != nil {
		return nil, err
	}
	r, err := execute(opt.Executor, workers, &ExecJob{
		Kind:      ExecOS,
		Graph:     g,
		Seed:      opt.Seed,
		Units:     opt.Trials,
		Anchor:    a,
		OS:        opt.kernel(),
		Interrupt: opt.Interrupt,
		Probe:     opt.Probe,
		stop:      opt.stop,
	}, opt.Resume)
	if err != nil {
		return nil, err
	}
	res := r.acc.resultNorm("os", opt.Trials, r.Done)
	if r.Done < opt.Trials {
		res.Partial = true
		if a.Kind == 0 {
			res.Checkpoint = r.checkpoint(run, g)
		}
	}
	probeFinish(opt.Probe, res)
	return res, nil
}

// OSOnWorld runs one deterministic Ordering Sampling pass over a concrete
// possible world and returns its maximum weighted butterfly set. This is
// the per-world search inside OS, exposed so tests can verify it against
// brute-force enumeration on the same world, which makes the OS pruning
// logic checkable without any statistics.
func OSOnWorld(g *bigraph.Graph, w *possible.World, opt OSOptions) butterfly.MaxSet {
	idx := snapshotFor(g).kernel(g, opt)
	defer releaseKernel(idx)
	var sMB butterfly.MaxSet
	idx.runTrial(&sMB, w.Has)
	return sMB
}

// osIndex is the flat-memory Ordering Sampling trial kernel: the
// per-graph precomputation (SoA edge snapshot, w̄) plus per-trial scratch
// laid out so a steady-state trial performs zero allocations.
//
//   - Edge presence is decided by comparing one raw generator word
//     against the snapshot's precomputed threshold (runTrialRNG), or by
//     an arbitrary oracle (runTrial) for the per-world variant.
//   - N̂_E(v) lives in one flat slice partitioned by the snapshot's CSR
//     offsets, each center vertex owning a region of capacity deg(v)
//     (the center side is chosen per graph by the snapshot; see
//     edgeSnapshot.flip).
//   - The angle tables A1/A2 are pool entries indexed through a
//     generation-stamped open-addressing table, so per-trial reset is a
//     generation bump.
//
// A kernel is sized for its graph's global snapshot and pooled there; an
// anchored job borrows one and restricts its trials to the job's view of
// that snapshot (see restrict and runAnchored).
type osIndex struct {
	g    *bigraph.Graph
	opt  OSOptions
	snap *edgeSnapshot

	// view, when set, restricts every trial to an anchored job's members
	// (runAnchored). present holds such a trial's presence bits, one word
	// per block of positions; a trial writes a block's word before it
	// reads any bit of it, so the words are never cleared. words is its
	// block draw buffer, kept here so that a trial does not zero it.
	view    *anchoredView
	present []uint64
	words   [rngBlock]uint64

	// Flat N̂_E: center vertex v's live processed edges are
	// liveFlat[snap.liveOff[v] : snap.liveOff[v]+n] where n is live[v].n if
	// live[v].gen matches liveCur and 0 otherwise — the same
	// generation-stamp trick as the angle table, so per-trial reset of
	// every live list is one counter bump instead of a touched-vertex walk.
	liveFlat []liveEdge
	live     []liveMeta
	liveCur  uint32

	// Angle entry pool, indexed through tab. Callers hold POOL INDICES,
	// never *angleEntry pointers, across entryFor calls: the pool grows by
	// append, and a reallocation would leave an in-flight pointer aiming
	// at the stale backing array (the seed implementation returned
	// pointers and was safe only because no caller held one across a
	// call — a hazard, not a guarantee).
	tab   angleTable
	pool  []angleEntry
	poolN int

	// rng is the worker-local per-trial stream runTrialSeeded derives
	// into, so deriving costs no allocation.
	rng randx.RNG

	// maxList tracks the pool indices whose bestWeight equals the running
	// w_max, in ascending pool order, so the specialized path materializes
	// only those entries instead of rewalking the whole pool. maxGen
	// invalidates stale angleEntry.mark stamps in O(1) whenever w_max
	// rises (and across trials); it is monotone, so a stamp can never
	// alias a later generation.
	maxList []int32
	maxGen  uint64

	// pairs, when on, takes the top angle classes of at least pairMinMids
	// middles that reach w_max on their own: materializeList records them
	// there instead of listing their butterflies into S_MB. Only osWorker
	// turns it on; OSOnWorld, supervisor audits and the bench harness read
	// the whole S_MB.
	pairs pairTally

	// tally is the private butterfly tally of an osWorker other than
	// worker 0, pooled with the kernel so its table keeps the capacity it
	// grew to; the worker empties it before its first trial.
	tally probAccumulator
}

// angleEntry is one endpoint pair's angle bookkeeping: the largest (w1,
// mids1) and second-largest (w2, mids2) angle weight classes, per Table
// II. With KeepAllAngles it additionally records every angle. The pair
// vertices live on the snapshot's pairing side and the middles on its
// center side (left/right assignment depends on edgeSnapshot.flip).
type angleEntry struct {
	u1, u2 bigraph.VertexID // pairing-side endpoint pair, u1 < u2
	w1     float64
	mids1  []bigraph.VertexID
	w2     float64
	mids2  []bigraph.VertexID
	all    []midW // only with KeepAllAngles
	// mark stamps membership in osIndex.maxList for the current maxGen;
	// stale stamps are dead by monotonicity and never need clearing.
	mark uint64
}

type midW struct {
	mid bigraph.VertexID
	w   float64
}

// liveMeta is one center vertex's live-list length, valid only when its
// generation stamp matches osIndex.liveCur. Packed into 8 bytes so the
// hot path reads length and validity in a single load.
type liveMeta struct {
	n   int32
	gen uint32
}

// newOSIndexFromSnapshot builds a kernel over the global snapshot snap:
// liveFlat holds every edge of the graph and live every vertex of its
// larger side.
func newOSIndexFromSnapshot(g *bigraph.Graph, opt OSOptions, snap *edgeSnapshot) *osIndex {
	x := &osIndex{
		g:        g,
		opt:      opt,
		snap:     snap,
		liveFlat: make([]liveEdge, snap.numEdges()),
		live:     make([]liveMeta, max(g.NumL(), g.NumR())),
		liveCur:  1,
		tab:      newAngleTable(minAngleTableCap),
	}
	x.tab.tok = snap.tok // Zobrist pair hashing, shared with the inlined probe
	x.pairs.flip = snap.flip
	return x
}

// kernel returns a trial kernel over s, reusing a previously released
// kernel when s's pool has one. This is how every LocalExecutor OS
// worker, global or anchored, and the bench harness obtain their kernel:
// repeat runs and parallel chunks over the same graph stop paying the
// ~1MB per-kernel build, which is what held the parallel path at ~40
// allocs per trial, and an anchored job builds none.
func (s *edgeSnapshot) kernel(g *bigraph.Graph, opt OSOptions) *osIndex {
	if k, ok := s.kernels.Get().(*osIndex); ok && k != nil {
		k.opt = opt
		return k
	}
	return newOSIndexFromSnapshot(g, opt, s)
}

// restrict limits the kernel's trials to an anchored job's view of its
// snapshot, or lifts the limit when v is nil. Every trial starts with
// resetTrial, whose generation bumps drop whatever an earlier trial left
// in the live lists and the angle table.
func (x *osIndex) restrict(v *anchoredView) {
	x.view = v
	if v != nil && x.present == nil {
		x.present = make([]uint64, len(x.snap.ndraws))
	}
}

// releaseKernel returns a kernel obtained from edgeSnapshot.kernel to its
// snapshot's pool, its anchored view dropped with the job. The options
// are cleared so a pooled kernel does not retain a caller's Interrupt or
// Probe beyond its run, and the pair tally is turned off so the next user
// reads whole maximum sets.
func releaseKernel(x *osIndex) {
	x.opt = OSOptions{}
	x.pairs.on = false
	x.restrict(nil)
	x.snap.kernels.Put(x)
}

func (x *osIndex) resetTrial() {
	x.liveCur++
	if x.liveCur == 0 { // generation wrapped: stale stamps could alias
		for i := range x.live {
			x.live[i].gen = 0
		}
		x.liveCur = 1
	}
	x.tab.reset()
	x.poolN = 0
	x.maxList = x.maxList[:0]
	x.maxGen++
}

// entryFor returns the pool index of the (possibly new) angle entry for
// endpoint pair {a, b}, reusing pooled storage across trials. It returns
// an index rather than a pointer: the pool may reallocate on growth, and
// an index stays valid where a pointer would dangle.
func (x *osIndex) entryFor(a, b bigraph.VertexID) int32 {
	if a > b {
		a, b = b, a
	}
	key := uint64(a)<<32 | uint64(b)
	if i, found := x.tab.getOrPut(key, int32(x.poolN)); found {
		return i
	}
	return x.newEntry(a, b)
}

// newEntry claims the next pool entry for the endpoint pair a < b, with
// no angle yet, and returns its index.
func (x *osIndex) newEntry(a, b bigraph.VertexID) int32 {
	if x.poolN == len(x.pool) {
		x.pool = append(x.pool, angleEntry{})
	}
	e := &x.pool[x.poolN]
	e.mids1 = e.mids1[:0]
	e.mids2 = e.mids2[:0]
	e.all = e.all[:0]
	e.u1, e.u2 = a, b
	e.w1, e.w2 = math.Inf(-1), math.Inf(-1)
	x.poolN++
	return int32(x.poolN - 1)
}

// update applies the Table II cases for a new angle of weight w with
// middle mid.
func (e *angleEntry) update(w float64, mid bigraph.VertexID) {
	switch {
	case w > e.w1:
		// Promote: old A1 becomes A2.
		e.w2 = e.w1
		e.mids2 = append(e.mids2[:0], e.mids1...)
		e.w1 = w
		e.mids1 = append(e.mids1[:0], mid)
	case w == e.w1:
		e.mids1 = append(e.mids1, mid)
	case w > e.w2:
		e.w2 = w
		e.mids2 = append(e.mids2[:0], mid)
	case w == e.w2:
		e.mids2 = append(e.mids2, mid)
	default:
		// w < w2: ignored, it can never be part of a maximum butterfly
		// for this endpoint pair (Section V-C correctness argument).
	}
}

// updatePinned applies an edge anchor's classes in place of Table II:
// the angle at the pinned center is the pair's forced half (w1, mids1),
// and of its other angles only the top class is kept (w2, mids2). Every
// butterfly through the anchor edge is the forced half plus one other
// angle, so bestWeight and the materializers read these entries
// unchanged: mids1 never holds two middles.
func (e *angleEntry) updatePinned(w float64, mid bigraph.VertexID, forced bool) {
	switch {
	case forced:
		e.w1 = w
		e.mids1 = append(e.mids1[:0], mid)
	case w > e.w2:
		e.w2 = w
		e.mids2 = append(e.mids2[:0], mid)
	case w == e.w2:
		e.mids2 = append(e.mids2, mid)
	}
}

// updateDropA2 is the deliberately broken Table II update behind
// OSOptions.DropA2: it keeps only the A1 class, so bestWeight can never
// report an A1+A2 combination and those butterflies are lost. Kept as a
// separate method so the correct update's signature (exercised directly
// by angle-table tests) stays untouched.
func (e *angleEntry) updateDropA2(w float64, mid bigraph.VertexID) {
	switch {
	case w > e.w1:
		e.w1 = w
		e.mids1 = append(e.mids1[:0], mid)
	case w == e.w1:
		e.mids1 = append(e.mids1, mid)
	}
}

// bestWeight returns the largest butterfly weight this endpoint pair can
// currently produce, or -Inf if it cannot produce one (fewer than two
// angles retained).
func (e *angleEntry) bestWeight() float64 {
	if len(e.mids1) >= 2 {
		return 2 * e.w1
	}
	if len(e.mids1) == 1 && len(e.mids2) >= 1 {
		return e.w1 + e.w2
	}
	return math.Inf(-1)
}

// runTrialSeeded derives the trial's stream from (root, id) into the
// kernel-local generator and runs the threshold-sampling trial. This is
// the production hot path: it performs zero allocations at steady state
// and its Result contribution is bit-identical to the seed
// implementation's rng.Bernoulli closure over a Derive(id) stream. It
// returns the snapshot position the scan stopped at.
func (x *osIndex) runTrialSeeded(root *randx.RNG, id uint64, sMB *butterfly.MaxSet) (scanned int) {
	root.DeriveInto(id, &x.rng)
	return x.runTrialRNG(sMB, &x.rng)
}

// runTrialRNG executes lines 4–20 of Algorithm 2 with edge presence
// decided by the snapshot's precomputed thresholds against rng's raw
// words, generated rngBlock positions at a time (see below). Draw
// consumption is positional — the k-th p ∈ (0,1) snapshot position of
// the trial compares against the k-th raw word, no draw for p ∈ {0,1} —
// which is the exact stream consumption of randx.Bernoulli, so Results
// are bit-identical to the seed implementation. It returns the snapshot
// position the scan stopped at (the benchmark harness reports the
// remainder as pruned).
//
// The production configuration (no ablations) runs the specialized v2
// loop:
//
//   - Block RNG: the block's raw words are generated into a stack
//     buffer in one burst, then every position is tested branch-free
//     against its normalized admission threshold ((word>>11 − th) >> 63),
//     producing one presence bitmask per block; present positions are
//     visited via trailing-zero iteration. Zero-support and p=0 edges
//     have threshold 0 and never set a bit, but still consume their
//     word positionally, so the schedule matches randx.Bernoulli
//     draw for draw.
//   - Support-sharpened pruning: stops use wBarS (top-3 support-positive
//     weights) instead of the global wBar, and angle work is cut by the
//     wBar2S bounds — every skip is provably inert (the skipped work
//     could neither raise nor tie the final w_max; see
//     docs/ALGORITHMS.md), so Results stay bit-identical.
//
// The ablation paths share the generic admitEdge walk instead —
// identical Results; only the instruction stream differs. A kernel
// restricted to an anchored view runs runAnchored.
func (x *osIndex) runTrialRNG(sMB *butterfly.MaxSet, rng *randx.RNG) (scanned int) {
	switch {
	case x.view != nil:
		return x.runAnchored(sMB, rng, nil)
	case x.opt.KeepAllAngles || x.opt.DropA2:
		return x.runTrialRNGGeneric(sMB, rng)
	}
	snap := x.snap
	if snap.barren {
		// No edge lies on any backbone butterfly: every possible world's
		// maximum set is empty, and no draws are needed (each trial
		// re-derives its stream, so skipping them is invisible).
		sMB.Reset()
		return 0
	}
	x.resetTrial()
	sMB.Reset()
	prune := !x.opt.DisableEdgePrune
	wBarS, wBar2S := snap.wBarS, snap.wBar2S
	wMax := math.Inf(-1)

	// Local generator copy: every draw is inlined register arithmetic.
	// The stream position after the trial is irrelevant (each trial
	// re-derives), so the copy never needs writing back. Pool and touched
	// bookkeeping likewise run on locals and are stored back once after
	// the scan.
	lr := *rng
	ws, pcs := snap.w, snap.pc
	admitTh, wordOf, ndraws := snap.admitTh, snap.wordOf, snap.ndraws
	liveFlat, live, liveOff := x.liveFlat, x.live, snap.liveOff
	liveCur := x.liveCur
	toks := snap.tok
	tb := &x.tab
	pool, poolN := x.pool, x.poolN
	negInf := math.Inf(-1)

	n := len(ws)
	// words is the block draw buffer. Deterministic positions may index
	// one slot past the block's generated words (wordOf points at the
	// next undetermined position); the read is harmless garbage — their
	// sentinel thresholds (0 / 2^53) decide regardless of the word — so
	// the mask loop stays branch-free.
	var words [rngBlock]uint64
	scanned = n

scan:
	for b := 0; b < n; {
		if prune && ws[b]+wBarS < wMax { // line 9, block granularity
			scanned = b
			break
		}
		be := b + rngBlock
		if be > n {
			be = n
		}
		nd := int(ndraws[b>>rngBlockShift])
		for k := 0; k < nd; k++ {
			words[k] = lr.Uint64()
		}
		// Branch-free batched threshold test: bit k of mask is set iff
		// position b+k is present. Both operands are < 2^63 (words are
		// 53-bit after the shift, thresholds normalized to ≤ 2^53), so
		// the sign of the subtraction is exactly the comparison.
		var mask uint64
		ath := admitTh[b:be]
		wof := wordOf[b:be]
		for k := 0; k < len(ath); k++ {
			u := words[wof[k]] >> 11
			mask |= ((u - ath[k]) >> 63) << uint(k)
		}
		for mask != 0 {
			k := bits.TrailingZeros64(mask)
			mask &= mask - 1
			i := b + k
			w := ws[i]
			if prune && w+wBarS < wMax { // line 9, exact position
				scanned = i
				break scan
			}
			// Lines 10–14, inlined from admitEdge/entryFor. ui is the
			// pairing endpoint, vj the center (middle) endpoint.
			uvp := pcs[i]
			ui, vj := bigraph.VertexID(uvp>>32), bigraph.VertexID(uvp&0xffffffff)
			base := liveOff[vj]
			lm := live[vj]
			nLive := lm.n
			if lm.gen != liveCur {
				nLive = 0
			}
			tu := toks[ui]
			for s := base; s < base+nLive; s++ {
				hb := &liveFlat[s]
				angleW := w + hb.w // line 11: ∠_new = e_a ⊕ e_b
				if angleW+wBar2S < wMax {
					// Live entries are appended in descending weight
					// order, so every later partner forms a lighter
					// angle; none can complete a butterfly at w_max
					// (the completing angle is bounded by wBar2S).
					break
				}
				uk := hb.to
				if uk == ui {
					continue
				}
				a, b := ui, uk
				if a > b {
					a, b = b, a
				}
				key := uint64(a)<<32 | uint64(b)
				// angleTable.getOrPut, manually inlined with the Zobrist
				// hash (symmetric in the pair, so it skips the canonical
				// ordering and the multiply chain of mix64; the partner's
				// token rides in the liveEdge). Must stay
				// position-compatible with angleTable.hash — grow()
				// re-probes through it.
				h := (tu ^ hb.tok) & tb.mask
				var ei int32
				for {
					sl := &tb.slots[h]
					if sl.gen != tb.cur {
						// Miss: claim the slot and a pool entry.
						ei = int32(poolN)
						if (tb.live+1)*4 > len(tb.slots)*3 {
							tb.grow()
							tb.put(key, ei)
						} else {
							*sl = atSlot{key: key, val: ei, gen: tb.cur}
							tb.live++
						}
						if poolN == len(pool) {
							pool = append(pool, angleEntry{})
						}
						e := &pool[ei]
						e.mids1 = e.mids1[:0]
						e.mids2 = e.mids2[:0]
						e.all = e.all[:0]
						e.u1, e.u2 = a, b
						e.w1, e.w2 = negInf, negInf
						poolN++
						break
					}
					if sl.key == key {
						ei = sl.val
						break
					}
					h = (h + 1) & tb.mask
				}
				ent := &pool[ei]
				ent.update(angleW, vj) // line 12, Table II
				if bw := ent.bestWeight(); bw > wMax {
					wMax = bw // line 13
					x.maxGen++
					x.maxList = append(x.maxList[:0], ei)
					ent.mark = x.maxGen
				} else if bw == wMax && bw != negInf && ent.mark != x.maxGen {
					// This pair ties the running maximum: record it once,
					// keeping maxList in ascending pool order so the
					// materialization order matches the seed's pool walk.
					ent.mark = x.maxGen
					ml := x.maxList
					j := len(ml)
					ml = append(ml, ei)
					for j > 0 && ml[j-1] > ei {
						ml[j] = ml[j-1]
						j--
					}
					ml[j] = ei
					x.maxList = ml
				}
			}
			if 2*w+wBar2S >= wMax {
				liveFlat[base+nLive] = liveEdge{to: ui, w: w, tok: tu} // line 14
				live[vj] = liveMeta{n: nLive + 1, gen: liveCur}
			}
			// else: every future angle through this edge is ≤ 2w (its
			// partner is no heavier) and completes to < w_max — the
			// entry could never contribute, so it is not recorded. The
			// region slot stays free for the next recorded edge.
		}
		b = be
	}
	x.pool, x.poolN = pool, poolN
	x.materializeList(sMB, wMax)
	return scanned
}

// runTrialRNGGeneric is the unspecialized threshold trial of the global
// ablations (KeepAllAngles, DropA2): same algorithm, with angle admission
// routed through admitEdge so the ablation branches stay in one place.
func (x *osIndex) runTrialRNGGeneric(sMB *butterfly.MaxSet, rng *randx.RNG) (scanned int) {
	x.resetTrial()
	sMB.Reset()
	snap := x.snap
	prune := !x.opt.DisableEdgePrune
	wMax := math.Inf(-1)

	i := 0
	for ; i < len(snap.id); i++ {
		if prune && snap.w[i]+snap.wBar < wMax { // line 9
			break
		}
		th := snap.thresh[i]
		if th == randx.BernoulliNever {
			continue
		}
		if th != randx.BernoulliAlways && rng.Uint64()>>11 >= th {
			continue
		}
		wMax = x.admitEdge(i, wMax)
	}
	x.materialize(sMB, wMax)
	return i
}

// runTrial executes the same trial against an arbitrary edge presence
// oracle — World.Has for the deterministic per-world variant (OSOnWorld).
// A kernel restricted to an anchored view runs the same joins as its
// sampled trial (runAnchored) with presence from the oracle.
func (x *osIndex) runTrial(sMB *butterfly.MaxSet, present func(bigraph.EdgeID) bool) (scanned int) {
	if x.view != nil {
		return x.runAnchored(sMB, nil, present)
	}
	x.resetTrial()
	sMB.Reset()
	snap := x.snap
	prune := !x.opt.DisableEdgePrune
	wMax := math.Inf(-1)

	i := 0
	for ; i < len(snap.id); i++ {
		if prune && snap.w[i]+snap.wBar < wMax { // line 9
			break
		}
		if !present(snap.id[i]) {
			continue
		}
		wMax = x.admitEdge(i, wMax)
	}
	x.materialize(sMB, wMax)
	return i
}

// admitEdge processes the live edge at snapshot position i (lines 10–14)
// for the global ablations: form an angle with every live edge already
// recorded at its center endpoint, push each through the update, lift
// w_max, and append the edge to its center vertex's flat N̂_E region.
func (x *osIndex) admitEdge(i int, wMax float64) float64 {
	snap := x.snap
	ui, vj, w := snap.prt[i], snap.ctr[i], snap.w[i]
	base := snap.liveOff[vj]
	lm := x.live[vj]
	n := lm.n
	if lm.gen != x.liveCur {
		n = 0
	}
	for _, hb := range x.liveFlat[base : base+n] { // line 10: e_b = (v_j, u_k)
		if hb.to == ui {
			continue // cannot happen for simple graphs, but be safe
		}
		wMax = x.addAngle(x.entryFor(ui, hb.to), w+hb.w, vj, wMax) // line 11: ∠_new = e_a ⊕ e_b
	}
	x.liveFlat[base+n] = liveEdge{to: ui, w: w, tok: snap.tok[ui]} // line 14
	x.live[vj] = liveMeta{n: n + 1, gen: x.liveCur}
	return wMax
}

// addAngle pushes an angle of weight w with middle mid through pool entry
// ei's classes (line 12) and returns w_max lifted by the entry's best
// butterfly (line 13). An edge anchor's entries take updatePinned, the
// DropA2 fault injection its broken update, and every other entry Table
// II.
func (x *osIndex) addAngle(ei int32, w float64, mid bigraph.VertexID, wMax float64) float64 {
	ent := &x.pool[ei]
	if x.opt.KeepAllAngles {
		ent.all = append(ent.all, midW{mid: mid, w: w})
	}
	switch {
	case x.view != nil && x.view.a.Kind == AnchorEdge:
		ent.updatePinned(w, mid, mid == x.view.a.V)
	case x.opt.DropA2:
		ent.updateDropA2(w, mid) // fault injection: A2 lost
	default:
		ent.update(w, mid) // line 12, Table II
	}
	if bw := ent.bestWeight(); bw > wMax {
		wMax = bw // line 13
	}
	return wMax
}

// orient maps the kernel's pair/middle roles back to the graph's
// left/right sides: the pair vertices are left and the middles right
// unless the snapshot flipped the center side. butterfly.New canonicalizes
// within each side, so the butterfly is identical to the unflipped
// (seed/oracle) orientation.
func orient(flip bool, u1, u2, m1, m2 bigraph.VertexID) butterfly.Butterfly {
	if flip {
		return butterfly.New(m1, m2, u1, u2)
	}
	return butterfly.New(u1, u2, m1, m2)
}

// emit adds one maximum butterfly of ent's endpoint pair, whose sides are
// those of the anchored view when the kernel is restricted to one.
func (x *osIndex) emit(sMB *butterfly.MaxSet, ent *angleEntry, m1, m2 bigraph.VertexID, w float64) {
	flip := x.snap.flip
	if x.view != nil {
		flip = x.view.flip
	}
	sMB.Add(orient(flip, ent.u1, ent.u2, m1, m2), w)
}

// materializeList emits the butterflies of weight w_max from the
// specialized path's candidate list instead of rewalking the whole pool:
// maxList holds, in ascending pool order, exactly the entries whose
// bestWeight equals the final w_max (entries join when they set or tie
// the running maximum; the list is cleared whenever the maximum rises, so
// no stale entry survives). Emission per entry is identical to
// materialize, so the butterflies come out in the same order as the
// seed's pool walk. With the pair tally on, a top class of at least
// pairMinMids middles that reaches w_max on its own is recorded there
// instead, and S_MB holds the rest.
func (x *osIndex) materializeList(sMB *butterfly.MaxSet, wMax float64) {
	if math.IsInf(wMax, -1) {
		return // no butterfly in this world
	}
	for _, ei := range x.maxList {
		ent := &x.pool[ei]
		switch {
		case len(ent.mids1) >= 2 && 2*ent.w1 == wMax: // line 16
			if x.pairs.on && len(ent.mids1) >= pairMinMids {
				x.pairs.record(ent)
				continue
			}
			for a := 0; a < len(ent.mids1); a++ {
				for b := a + 1; b < len(ent.mids1); b++ {
					x.emit(sMB, ent, ent.mids1[a], ent.mids1[b], wMax)
				}
			}
		case len(ent.mids1) == 1 && len(ent.mids2) >= 1 && ent.w1+ent.w2 == wMax: // line 18
			for _, m2 := range ent.mids2 {
				x.emit(sMB, ent, ent.mids1[0], m2, wMax)
			}
		}
	}
}

// materialize emits exactly the butterflies of weight w_max (lines
// 15–20).
func (x *osIndex) materialize(sMB *butterfly.MaxSet, wMax float64) {
	if math.IsInf(wMax, -1) {
		return // no butterfly in this world
	}
	for i := 0; i < x.poolN; i++ {
		ent := &x.pool[i]
		if x.opt.KeepAllAngles {
			// Ablation path: derive the maxima from the full angle list,
			// which must agree with the A1/A2 path.
			for a := 0; a < len(ent.all); a++ {
				for b := a + 1; b < len(ent.all); b++ {
					if ent.all[a].mid == ent.all[b].mid {
						continue
					}
					if w := ent.all[a].w + ent.all[b].w; w == wMax {
						x.emit(sMB, ent, ent.all[a].mid, ent.all[b].mid, wMax)
					}
				}
			}
			continue
		}
		switch {
		case len(ent.mids1) >= 2 && 2*ent.w1 == wMax: // line 16
			for a := 0; a < len(ent.mids1); a++ {
				for b := a + 1; b < len(ent.mids1); b++ {
					x.emit(sMB, ent, ent.mids1[a], ent.mids1[b], wMax)
				}
			}
		case len(ent.mids1) == 1 && len(ent.mids2) >= 1 && ent.w1+ent.w2 == wMax: // line 18
			for _, m2 := range ent.mids2 {
				x.emit(sMB, ent, ent.mids1[0], m2, wMax)
			}
		}
	}
}
