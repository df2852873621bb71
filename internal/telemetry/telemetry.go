// Package telemetry is the run-observability layer of the MPMB engine:
// a sharded counter/gauge/histogram registry plus a typed event stream.
//
// Design constraints (see ISSUE 5):
//
//   - Zero overhead when disabled. Every hook in internal/core is guarded
//     by a nil *Probe check; kernels accumulate plain stack-local tallies
//     and flush them into the registry only at batch boundaries, so the
//     per-trial hot path performs no atomic operations and no allocations
//     whether or not telemetry is enabled.
//   - Live snapshots. Each worker owns one cache-line-padded shard of
//     atomic counters; Snapshot merges the shards with atomic loads, so a
//     concurrent HTTP scrape or progress printer always sees a consistent
//     monotone view while sampling proceeds.
//   - A slow observer can never stall sampling. Events go through a
//     bounded ring (a buffered channel) with a non-blocking send; when
//     the ring is full the event is counted as dropped, never waited on.
//
// An Observer (the public wrapper in the root package) must not be shared
// by two *concurrent* runs: the registry reconfigures its shard array at
// run start. Sequential reuse across runs is supported and keeps counters
// monotone, which is what Prometheus scrapes expect.
package telemetry

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter identifies one engine-wide monotone counter.
type Counter int

const (
	// CounterTrials counts sampling-phase trials executed (OS/MC-VP world
	// trials, OLS estimation trials, and Karp-Luby pricing trials).
	CounterTrials Counter = iota
	// CounterTrialHits counts sampling trials in which at least one
	// maximum butterfly (or live candidate) was observed.
	CounterTrialHits
	// CounterPrepTrials counts OLS preparing-phase trials (including
	// supervisor re-preparation after an audit escalation).
	CounterPrepTrials
	// CounterEdgesScanned / CounterEdgesPruned split the per-trial edge
	// scan of the OS kernel: scanned positions vs positions skipped by
	// the descending-weight prune (Algorithm 2 line 7).
	CounterEdgesScanned
	CounterEdgesPruned
	// CounterCandScanned / CounterCandPruned split the OLS sampling-phase
	// candidate scan: candidates examined per trial vs candidates skipped
	// by the early break (Algorithm 3 lines 5-6).
	CounterCandScanned
	CounterCandPruned
	// CounterCandidates counts butterflies promoted into the candidate
	// set C_MB during preparation (Lemma VI.5 candidates).
	CounterCandidates
	// CounterAudits counts supervisor coverage audits; CounterAuditMisses
	// counts maximum butterflies an audit found missing from C_MB.
	CounterAudits
	CounterAuditMisses
	// CounterEscalations counts audit-triggered prep escalations.
	CounterEscalations
	// CounterCheckpointSaves / CounterCheckpointRetries count successful
	// checkpoint store operations and retried attempts.
	CounterCheckpointSaves
	CounterCheckpointRetries
	// CounterDistLeaseErrors / CounterDistCompleteErrors /
	// CounterDistGraphErrors / CounterDistExecErrors split a distributed
	// worker's lease-loop failures by kind (transport faults on the
	// lease, complete, graph and candidate-set exchanges vs local
	// execution faults), so fleet dashboards can tell a sick network from
	// a sick kernel.
	CounterDistLeaseErrors
	CounterDistCompleteErrors
	CounterDistGraphErrors
	CounterDistExecErrors
	// CounterDistReconnects counts re-established coordinator
	// connections after an unreachable spell (the worker parked in its
	// reconnect loop and the coordinator came back).
	CounterDistReconnects

	numCounters
)

// histBuckets is the number of trial-latency histogram buckets. Bucket 0
// holds trials faster than 64ns; bucket i>0 holds [2^(5+i), 2^(6+i)) ns;
// the last bucket is the overflow.
const histBuckets = 20

// HistBucketBound returns the inclusive ns/trial upper bound of bucket i,
// or math.MaxInt64 for the overflow bucket.
func HistBucketBound(i int) int64 {
	if i >= histBuckets-1 {
		return math.MaxInt64
	}
	return int64(1)<<(6+uint(i)) - 1
}

func histBucket(nsPerTrial int64) int {
	if nsPerTrial < 64 {
		return 0
	}
	b := bits.Len64(uint64(nsPerTrial)) - 6
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// shard is one worker's slice of the registry. Padded so two workers
// flushing concurrently never contend on the same cache line.
type shard struct {
	counters [numCounters]atomic.Int64
	hist     [histBuckets]atomic.Int64
	histSum  atomic.Int64 // total ns across recorded batches
	histN    atomic.Int64 // total trials recorded into hist
	_        [64]byte
}

// Registry aggregates counters from per-worker shards. The zero value is
// not usable; use NewRegistry.
type Registry struct {
	mu     sync.Mutex
	shards atomic.Pointer[[]shard]

	// base holds totals folded out of retired shard arrays when the
	// registry is resized for a run with more workers, keeping Snapshot
	// monotone across runs. Guarded by mu.
	base     [numCounters]int64
	baseHist [histBuckets]int64
	baseSum  int64
	baseN    int64

	// Gauges (not sharded: written rarely, from one goroutine at a time).
	leaderP  atomic.Uint64 // float64 bits
	leaderHW atomic.Uint64 // float64 bits
	workers  atomic.Int64
}

// NewRegistry returns a registry with a single shard.
func NewRegistry() *Registry {
	r := &Registry{}
	s := make([]shard, 1)
	r.shards.Store(&s)
	return r
}

// EnsureWorkers grows the shard array to at least n shards. Must be
// called before the run's workers start flushing; a grow folds existing
// shard totals into the base so Snapshot stays monotone.
func (r *Registry) EnsureWorkers(n int) {
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workers.Store(int64(n))
	cur := *r.shards.Load()
	if len(cur) >= n {
		return
	}
	for i := range cur {
		s := &cur[i]
		for c := 0; c < int(numCounters); c++ {
			r.base[c] += s.counters[c].Load()
		}
		for b := 0; b < histBuckets; b++ {
			r.baseHist[b] += s.hist[b].Load()
		}
		r.baseSum += s.histSum.Load()
		r.baseN += s.histN.Load()
	}
	next := make([]shard, n)
	r.shards.Store(&next)
}

// Shard returns worker w's shard, clamping w into range defensively.
func (r *Registry) Shard(w int) *shard {
	s := *r.shards.Load()
	if w < 0 || w >= len(s) {
		w = 0
	}
	return &s[w]
}

// Add adds delta to counter c on worker w's shard.
func (r *Registry) Add(w int, c Counter, delta int64) {
	if delta == 0 {
		return
	}
	r.Shard(w).counters[c].Add(delta)
}

// RecordTrialNs records a batch of trials that together took totalNs:
// the histogram credits all trials of the batch to the mean-ns bucket.
func (r *Registry) RecordTrialNs(w int, trials, totalNs int64) {
	if trials <= 0 || totalNs < 0 {
		return
	}
	s := r.Shard(w)
	s.hist[histBucket(totalNs/trials)].Add(trials)
	s.histSum.Add(totalNs)
	s.histN.Add(trials)
}

// SetLeader records the current leading estimate and its Agresti-Coull
// half-width as gauges.
func (r *Registry) SetLeader(p, halfWidth float64) {
	r.leaderP.Store(math.Float64bits(p))
	r.leaderHW.Store(math.Float64bits(halfWidth))
}

// Snapshot merges base totals and all shards into a Metrics value. Safe
// to call concurrently with flushes.
func (r *Registry) Snapshot() Metrics {
	r.mu.Lock()
	shards := *r.shards.Load()
	var tot [numCounters]int64
	copy(tot[:], r.base[:])
	var hist [histBuckets]int64
	copy(hist[:], r.baseHist[:])
	sum, n := r.baseSum, r.baseN
	r.mu.Unlock()

	for i := range shards {
		s := &shards[i]
		for c := 0; c < int(numCounters); c++ {
			tot[c] += s.counters[c].Load()
		}
		for b := 0; b < histBuckets; b++ {
			hist[b] += s.hist[b].Load()
		}
		sum += s.histSum.Load()
		n += s.histN.Load()
	}

	m := Metrics{
		Workers:            int(r.workers.Load()),
		Trials:             tot[CounterTrials],
		TrialHits:          tot[CounterTrialHits],
		PrepTrials:         tot[CounterPrepTrials],
		EdgesScanned:       tot[CounterEdgesScanned],
		EdgesPruned:        tot[CounterEdgesPruned],
		CandScanned:        tot[CounterCandScanned],
		CandPruned:         tot[CounterCandPruned],
		Candidates:         tot[CounterCandidates],
		Audits:             tot[CounterAudits],
		AuditMisses:        tot[CounterAuditMisses],
		Escalations:        tot[CounterEscalations],
		CheckpointSaves:    tot[CounterCheckpointSaves],
		CheckpointRetries:  tot[CounterCheckpointRetries],
		DistLeaseErrors:    tot[CounterDistLeaseErrors],
		DistCompleteErrors: tot[CounterDistCompleteErrors],
		DistGraphErrors:    tot[CounterDistGraphErrors],
		DistExecErrors:     tot[CounterDistExecErrors],
		DistReconnects:     tot[CounterDistReconnects],
		LeaderP:            math.Float64frombits(r.leaderP.Load()),
		LeaderHalfWidth:    math.Float64frombits(r.leaderHW.Load()),
	}
	m.TrialNs.Counts = hist[:]
	m.TrialNs.SumNs = sum
	m.TrialNs.Count = n
	return m
}
