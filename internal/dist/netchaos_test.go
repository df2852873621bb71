package dist

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/chaos"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// chaosSeed resolves the fault-schedule seed. MPMB_CHAOS_SEED overrides
// the pinned default, so a failed soak reproduces exactly from the seed
// its run reported.
func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	if v := os.Getenv("MPMB_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("MPMB_CHAOS_SEED=%q: %v", v, err)
		}
		return n
	}
	return 20250808
}

// reportSeed appends the failing subtest's schedule seed to the file
// named by MPMB_CHAOS_SEED_OUT, so CI can attach it as an artifact and a
// developer can replay the exact fault sequence.
func reportSeed(t *testing.T, seed uint64) {
	t.Helper()
	path := os.Getenv("MPMB_CHAOS_SEED_OUT")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("recording chaos seed: %v", err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "%s MPMB_CHAOS_SEED=%d\n", t.Name(), seed)
}

// chaosFleet stands up n workers whose every coordinator exchange passes
// through its own fault-injecting chaos transport, with a fast retry
// schedule so exhaustion (and the park/reconnect loop behind it) happens
// within test time. Returns the transports for vacuity checks.
func chaosFleet(t *testing.T, coord *Coordinator, n int, mk func(i int) chaos.Schedule) []*chaos.Transport {
	t.Helper()
	hs := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	cts := make([]*chaos.Transport, n)
	for i := 0; i < n; i++ {
		ct := chaos.NewTransport(mk(i))
		cts[i] = ct
		w := &Worker{
			Base:   hs.URL,
			Name:   fmt.Sprintf("c%d", i),
			Pool:   1,
			Client: &http.Client{Transport: ct, Timeout: 30 * time.Second},
			Transport: &Transport{
				RequestTimeout: 2 * time.Second,
				BaseDelay:      2 * time.Millisecond,
				MaxDelay:       20 * time.Millisecond,
				Seed:           uint64(i + 1),
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("chaos worker: %v", err)
			}
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		hs.Close()
	})
	return cts
}

// chaosFaults are the five injected fault classes of the soak matrix.
// Each is nasty in a different way: latency stresses timeouts, dropped
// requests stress the retry loop, dropped responses stress idempotency
// (the server applied the request, the client must safely retransmit),
// 5xx stresses transient-status classification, and the partition
// stresses the park/reconnect loop.
var chaosFaults = []struct {
	name string
	mk   func(seed uint64) chaos.Schedule
}{
	{"latency", func(seed uint64) chaos.Schedule {
		return chaos.Schedule{Seed: seed, LatencyP: 0.5, LatencyMin: time.Millisecond, LatencyMax: 10 * time.Millisecond}
	}},
	{"drop-request", func(seed uint64) chaos.Schedule {
		return chaos.Schedule{Seed: seed, DropRequestP: 0.3}
	}},
	{"drop-response", func(seed uint64) chaos.Schedule {
		return chaos.Schedule{Seed: seed, DropResponseP: 0.3}
	}},
	{"err5xx", func(seed uint64) chaos.Schedule {
		return chaos.Schedule{Seed: seed, Err5xxP: 0.4}
	}},
	{"partition", func(seed uint64) chaos.Schedule {
		// From the transport's very first request, so even a fast run
		// provably crosses the window.
		return chaos.Schedule{Seed: seed, Partitions: []chaos.Window{{From: 0, Until: 150 * time.Millisecond}}}
	}},
}

// TestChaosMatrixBitIdentical is the network-chaos acceptance bar: every
// fault class crossed with every executor-capable method must still end
// in a Result bit-identical to the sequential run. -short trims the
// matrix to one method (the CI smoke job); the full matrix is the
// nightly soak.
func TestChaosMatrixBitIdentical(t *testing.T) {
	seed := chaosSeed(t)
	g := meshGraph(t)
	methods := distMethods
	if testing.Short() {
		methods = []mpmb.Method{mpmb.MethodOLS}
	}
	for _, method := range methods {
		seq, err := mpmb.Search(g, baseOptions(method))
		if err != nil {
			t.Fatalf("%s sequential: %v", method, err)
		}
		for fi, f := range chaosFaults {
			fi := fi
			f := f
			t.Run(fmt.Sprintf("%s/%s", f.name, method), func(t *testing.T) {
				t.Cleanup(func() {
					if t.Failed() {
						reportSeed(t, seed)
					}
				})
				coord := NewCoordinator()
				coord.LeaseUnits = 64
				if method == mpmb.MethodOLSKL {
					// Narrow leases on ols-kl's short candidate axis: at 64
					// units its run makes only 4-5 requests, which a 0.3
					// fault probability misses entirely about a quarter of
					// the time. At 4 units every method makes dozens.
					coord.LeaseUnits = 4
				}
				// Short TTL: a lease granted whose grant reply was lost is
				// held by nobody and must reissue within test time.
				coord.LeaseTTL = 400 * time.Millisecond
				cts := chaosFleet(t, coord, 2, func(i int) chaos.Schedule {
					return f.mk(seed + uint64(fi*100+i))
				})
				opt := baseOptions(method)
				opt.Executor = &Executor{C: coord}
				got, err := mpmb.Search(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				var st chaos.Stats
				for _, ct := range cts {
					s := ct.Stats()
					st.Requests += s.Requests
					st.Delayed += s.Delayed
					st.DroppedRequests += s.DroppedRequests
					st.DroppedResponses += s.DroppedResponses
					st.Synth5xx += s.Synth5xx
					st.PartitionDrops += s.PartitionDrops
				}
				injected := st.Delayed + st.DroppedRequests + st.DroppedResponses + st.Synth5xx + st.PartitionDrops
				if injected == 0 {
					t.Fatalf("schedule %q injected nothing over %d requests; test is vacuous", f.name, st.Requests)
				}
				if !reflect.DeepEqual(got, seq) {
					t.Fatalf("Result under %s chaos diverges from sequential (%+v injected)\n got: %+v\nwant: %+v",
						f.name, st, got, seq)
				}
			})
		}
	}
}

// TestChaosPartitionReconnects partitions a mid-run fleet long enough
// that the worker's transport budget exhausts and it parks: the healed
// partition must end the parking spell (counted as a reconnect in the
// worker's telemetry) and the run must still finish bit-identical.
func TestChaosPartitionReconnects(t *testing.T) {
	if testing.Short() {
		t.Skip("partition soak")
	}
	seed := chaosSeed(t)
	t.Cleanup(func() {
		if t.Failed() {
			reportSeed(t, seed)
		}
	})
	g := meshGraph(t)
	opt := baseOptions(mpmb.MethodOS)
	opt.Trials = 60000 // long enough that the partition window lands mid-run
	seq, err := mpmb.Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}

	coord := NewCoordinator()
	coord.LeaseUnits = 2048
	hs := httptest.NewServer(coord.Handler())
	defer hs.Close()
	ct := chaos.NewTransport(chaos.Schedule{
		Seed:       seed,
		Partitions: []chaos.Window{{From: 30 * time.Millisecond, Until: 700 * time.Millisecond}},
	})
	reg := telemetry.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{
		Base:   hs.URL,
		Name:   "flaky",
		Pool:   1,
		Reg:    reg,
		Client: &http.Client{Transport: ct, Timeout: 30 * time.Second},
		// A tight budget so the partition exhausts it quickly and the
		// worker spends the window parked, not retrying.
		Transport: &Transport{
			RequestTimeout: time.Second,
			MaxAttempts:    2,
			BaseDelay:      time.Millisecond,
			MaxDelay:       4 * time.Millisecond,
			Seed:           1,
		},
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.Run(ctx); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	defer func() { cancel(); wg.Wait() }()

	dopt := baseOptions(mpmb.MethodOS)
	dopt.Trials = opt.Trials
	dopt.Executor = &Executor{C: coord}
	got, err := mpmb.Search(g, dopt)
	if err != nil {
		t.Fatal(err)
	}
	if st := ct.Stats(); st.PartitionDrops == 0 {
		t.Fatalf("partition never bit (%d requests); test is vacuous", st.Requests)
	}
	if m := reg.Snapshot(); m.DistReconnects < 1 {
		t.Fatalf("worker recorded no reconnects after the healed partition: %+v", m)
	}
	if !reflect.DeepEqual(got, seq) {
		t.Fatalf("Result across a partition diverges from sequential\n got: %+v\nwant: %+v", got, seq)
	}
}
