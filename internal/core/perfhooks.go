package core

import (
	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

// This file exposes narrow per-trial handles over the unexported trial
// kernels so the benchmark trajectory harness (internal/bench, `mpmb-bench
// perf`) can time single OS trials without replicating the samplers'
// run-loop plumbing. They are measurement hooks, not public API: nothing
// outside benchmarking should build on them.

// KernelBench drives single Ordering Sampling trials through the
// flat-memory kernel (the production path of OS/OSParallel), with the same
// per-trial stream derivation the samplers use.
type KernelBench struct {
	idx  *osIndex
	root *randx.RNG
	sMB  butterfly.MaxSet
}

// NewKernelBench prepares the kernel for g once (snapshot, thresholds,
// angle table) through the same acquire path the samplers use;
// subsequent Trial calls reuse that state exactly like a sampler's trial
// loop does.
func NewKernelBench(g *bigraph.Graph, opt OSOptions) *KernelBench {
	return &KernelBench{idx: snapshotFor(g).kernel(g, opt), root: randx.New(opt.Seed)}
}

// Trial runs the 1-based trial and reports how many snapshot positions
// the scan covered before the Section V-B prune stopped it.
func (k *KernelBench) Trial(trial int) (scanned int) {
	return k.idx.runTrialSeeded(k.root, uint64(trial), &k.sMB)
}

// NumEdges returns the snapshot size, so callers can convert scanned
// positions into pruned positions.
func (k *KernelBench) NumEdges() int { return k.idx.snap.numEdges() }

// SeedBench drives single Ordering Sampling trials through the frozen
// seed implementation (osref.go) with the seed's per-trial Derive and
// float-math Bernoulli, providing the pre-kernel baseline the trajectory
// report records alongside the kernel's numbers.
type SeedBench struct {
	idx  *osRefIndex
	g    *bigraph.Graph
	root *randx.RNG
	sMB  butterfly.MaxSet
}

// NewSeedBench prepares the frozen seed index for g.
func NewSeedBench(g *bigraph.Graph, opt OSOptions) *SeedBench {
	return &SeedBench{idx: newOSRefIndex(g, opt), g: g, root: randx.New(opt.Seed)}
}

// Trial runs the 1-based trial exactly as the seed sampler did: one
// derived generator allocation plus a Bernoulli closure over the AoS edge
// table.
func (k *SeedBench) Trial(trial int) {
	rng := k.root.Derive(uint64(trial))
	g := k.g
	k.idx.runTrial(&k.sMB, func(id bigraph.EdgeID) bool {
		return rng.Bernoulli(g.Edge(id).P)
	})
}
