package dist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"testing"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/core"
)

// FuzzLeaseDecode throws arbitrary bytes at the wire decoder. The
// contract under fuzz: DecodeLeaseComplete either returns a message
// that satisfies every invariant the coordinator relies on, or one of
// the three typed errors — never a panic, never an untyped rejection,
// never an invariant-violating message.
func FuzzLeaseDecode(f *testing.F) {
	valid := func(msg LeaseComplete) []byte {
		data, err := json.Marshal(&msg)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	enc := core.EncodePayload
	counts := func(cs ...core.ButterflyCount) []byte { return enc(core.ExecOS, core.Payload{Counts: cs}) }
	f.Add(valid(LeaseComplete{V: Version, Worker: "w0", Job: 1, Lease: 1, Lo: 1, Hi: 16,
		Payload:  counts(core.ButterflyCount{B: butterfly.Butterfly{U1: 0, U2: 2, V1: 1, V2: 3}, Count: 3, Weight: 1.5}),
		Counters: Counters{Trials: 16, TrialHits: 3, EdgesScanned: 64}}))
	f.Add(valid(LeaseComplete{V: Version, Job: 2, Lease: 9, Lo: 17, Hi: 32,
		Payload: enc(core.ExecOptimized, core.Payload{CandCounts: []int64{0, 16, 7}})}))
	f.Add(valid(LeaseComplete{V: Version, Job: 3, Lease: 2, Lo: 1, Hi: 4,
		Payload: enc(core.ExecKarpLuby, core.Payload{CandProbs: []float64{0, 0.5, 1, 0.25}, CandTrials: []int64{4, 4, 4, 4}})}))
	f.Add(valid(LeaseComplete{V: Version + 1, Lo: 1, Hi: 16})) // version skew
	f.Add(valid(LeaseComplete{V: Version, Lo: 0, Hi: 16}))     // lo below first trial
	f.Add(valid(LeaseComplete{V: Version, Lo: 17, Hi: 16}))    // inverted range
	f.Add(valid(LeaseComplete{V: Version, Lo: 1, Hi: 2,        // KL width mismatch
		Payload: enc(core.ExecKarpLuby, core.Payload{CandProbs: []float64{0.5}, CandTrials: []int64{1}})}))
	f.Add(valid(LeaseComplete{V: Version, Lo: 1, Hi: 16, // a second kind's fields, which the codec drops
		Payload: enc(core.ExecOptimized, core.Payload{CandCounts: []int64{1}, Counts: []core.ButterflyCount{{Count: 1}}})}))
	f.Add(valid(LeaseComplete{V: Version, Lo: 1, Hi: 16, Payload: counts(), Counters: Counters{Trials: -1}}))
	dup := butterfly.Butterfly{U1: 0, U2: 1, V1: 0, V2: 1}
	f.Add(valid(LeaseComplete{V: Version, Lo: 1, Hi: 16, // one butterfly listed twice
		Payload: counts(core.ButterflyCount{B: dup, Count: 16, Weight: 4}, core.ButterflyCount{B: dup, Count: 16, Weight: 4})}))
	f.Add(valid(LeaseComplete{V: Version, Lo: 1, Hi: 16, // degenerate butterfly
		Payload: counts(core.ButterflyCount{B: butterfly.Butterfly{U1: 1, U2: 1, V1: 2, V2: 0}, Count: 3, Weight: 4})}))
	f.Add(valid(LeaseComplete{V: Version, Lo: 1, Hi: 16, Payload: counts(core.ButterflyCount{Count: -2})}))
	torn := counts(core.ButterflyCount{B: dup, Count: 2, Weight: 4})
	torn[len(torn)/2] ^= 1
	f.Add(valid(LeaseComplete{V: Version, Lo: 1, Hi: 16, Payload: torn})) // payload fails its CRC
	f.Add(fmt.Appendf(nil, `{"v":%d,"lo":1,"hi":16,"payload":"AQ`, Version))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"v":1e309}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeLeaseComplete(data)
		if err != nil {
			if !errors.Is(err, ErrVersionSkew) && !errors.Is(err, ErrBadRange) && !errors.Is(err, ErrBadPayload) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if msg.V != Version {
			t.Fatalf("decoded message with v=%d", msg.V)
		}
		if msg.Lo < 1 || msg.Hi < msg.Lo {
			t.Fatalf("decoded message with bad range %d..%d", msg.Lo, msg.Hi)
		}
		width := msg.Hi - msg.Lo + 1
		_, p, err := core.DecodePayload(msg.Payload)
		if err != nil {
			t.Fatalf("decoded message with an undecodable payload: %v", err)
		}
		if n := len(p.CandProbs); n != 0 && n != width {
			t.Fatalf("decoded KL payload width %d for range width %d", n, width)
		}
		for i, e := range p.Counts {
			b := e.B
			if b.U1 >= b.U2 || b.V1 >= b.V2 || e.Count < 1 || e.Count > int64(width) {
				t.Fatalf("decoded butterfly entry %+v for range width %d", e, width)
			}
			if i == 0 {
				continue
			}
			a := p.Counts[i-1].B
			if slices.Compare([]uint32{a.U1, a.U2, a.V1, a.V2}, []uint32{b.U1, b.U2, b.V1, b.V2}) >= 0 {
				t.Fatalf("decoded butterflies out of canonical order: %v then %v", a, b)
			}
		}
		if msg.Counters.Trials < 0 || msg.Counters.TrialHits < 0 {
			t.Fatalf("decoded negative counters: %+v", msg.Counters)
		}
	})
}

// fuzzMergeGraph is a tiny fixed fixture; FuzzCheckpointMerge rebuilds
// it each run so the expected aggregate is a constant of the corpus.
func fuzzMergeGraph(tb testing.TB) *mpmb.Graph {
	tb.Helper()
	b := mpmb.NewBuilder(4, 4)
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			b.AddEdge(uint32(u), uint32(v), float64(1+u+v), 0.7)
		}
	}
	return b.Build()
}

// FuzzCheckpointMerge feeds the coordinator's merge arbitrary
// (lo, hi, version) completion triples — overlapping, misaligned,
// duplicated, version-skewed — and checks the structural invariants
// that keep distributed runs exact: the merged prefix only ever grows,
// never passes Units, a span merges at most once, and the done signal
// fires exactly when the prefix covers the job.
func FuzzCheckpointMerge(f *testing.F) {
	triples := func(ts ...int64) []byte {
		buf := make([]byte, 0, len(ts)*8)
		for _, v := range ts {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		return buf
	}
	// Legal lease shape for Units=40, LeaseUnits=8: lo ∈ {1,9,17,25,33},
	// hi = lo+7. Triples are (lo, hi, v); v is the wire version, or the
	// next one for a skewed message.
	const v, skew = Version, Version + 1
	f.Add(triples(1, 8, v, 9, 16, v, 17, 24, v, 25, 32, v, 33, 40, v)) // clean in-order run
	f.Add(triples(33, 40, v, 25, 32, v, 17, 24, v, 9, 16, v, 1, 8, v)) // fully reversed
	f.Add(triples(1, 8, v, 1, 8, v, 1, 8, v))                          // duplicated head
	f.Add(triples(1, 8, skew, 1, 8, v))                                // version skew then legal
	f.Add(triples(2, 9, v, 0, 7, v, 1, 40, v, 9, 8, v))                // misaligned, inverted
	f.Add(triples(1, 8, v, 5, 12, v, 9, 16, v))                        // overlapping lease
	f.Add(triples())

	g := fuzzMergeGraph(f)
	const units, leaseUnits = 40, 8
	// Precompute each legal span's payload once; the fuzz body replays
	// from this table so a run costs merges, not trials.
	payloads := map[int][]byte{}
	baseJob := func() *core.ExecJob {
		return &core.ExecJob{
			Kind: core.ExecOS, Graph: g, Seed: 11, Units: units, Start: 0,
		}
	}
	for lo := 1; lo <= units; lo += leaseUnits {
		res, err := (&core.LocalExecutor{Workers: 1}).ExecuteTrials(&core.ExecJob{
			Kind: core.ExecOS, Graph: g, Seed: 11, Units: lo + leaseUnits - 1, Start: lo - 1,
		})
		if err != nil {
			f.Fatal(err)
		}
		payloads[lo] = core.EncodePayload(core.ExecOS, core.Payload{Counts: res.CountsSnapshot()})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		coord := NewCoordinator()
		coord.LeaseUnits = leaseUnits
		id, done, err := coord.register(baseJob())
		if err != nil {
			t.Fatal(err)
		}
		merged := map[int]bool{}
		prevPrefix := 0
		for off := 0; off+24 <= len(data); off += 24 {
			lo := int(int64(binary.LittleEndian.Uint64(data[off:])))
			hi := int(int64(binary.LittleEndian.Uint64(data[off+8:])))
			v := int(int64(binary.LittleEndian.Uint64(data[off+16:])))
			msg := &LeaseComplete{V: Version, Job: id, Lo: lo, Hi: hi}
			if p, ok := payloads[lo]; ok && hi == lo+leaseUnits-1 {
				msg.Payload = p
			}
			// Route through the real wire decoder so version skew and
			// malformed ranges are rejected exactly where HTTP rejects them.
			msg.V = v
			raw, err := json.Marshal(msg)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeLeaseComplete(raw)
			if err != nil {
				if !errors.Is(err, ErrVersionSkew) && !errors.Is(err, ErrBadRange) && !errors.Is(err, ErrBadPayload) {
					t.Fatalf("untyped decode error for (%d,%d,%d): %v", lo, hi, v, err)
				}
				continue
			}
			rep, err := coord.complete(decoded)
			if err != nil {
				if !errors.Is(err, ErrBadRange) && !errors.Is(err, ErrBadPayload) {
					t.Fatalf("untyped merge error for (%d,%d): %v", lo, hi, err)
				}
				continue
			}
			if rep.Accepted {
				if merged[lo] {
					t.Fatalf("span at lo=%d merged twice", lo)
				}
				merged[lo] = true
			}
			prefix, _, ok := coordProgress(coord)
			if !ok {
				t.Fatal("job vanished mid-merge")
			}
			if prefix < prevPrefix {
				t.Fatalf("merged prefix regressed %d -> %d", prevPrefix, prefix)
			}
			if prefix > units {
				t.Fatalf("merged prefix %d exceeds units %d", prefix, units)
			}
			prevPrefix = prefix
		}
		complete := len(merged) == units/leaseUnits
		select {
		case <-done:
			if !complete {
				t.Fatalf("done fired with only %d/%d spans merged", len(merged), units/leaseUnits)
			}
		default:
			if complete {
				t.Fatal("all spans merged but done never fired")
			}
		}
		if complete {
			res, err := coord.collect(id)
			if err != nil {
				t.Fatal(err)
			}
			if res.Done != units {
				t.Fatalf("collected Done=%d, want %d", res.Done, units)
			}
		}
	})
}
