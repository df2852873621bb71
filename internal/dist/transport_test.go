package dist

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTransportStalledListenerBounded is the satellite acceptance test
// for the hung-coordinator case: a listener that accepts connections and
// never answers must cost the worker exactly its per-attempt timeouts,
// not an unbounded hang, and surface the typed exhaustion error.
func TestTransportStalledListenerBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var conns []net.Conn
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Accept and go silent: the request is read by nobody.
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()

	tr := &Transport{
		RequestTimeout: 50 * time.Millisecond,
		MaxAttempts:    2,
		BaseDelay:      time.Millisecond,
		Sleep:          func(time.Duration) {},
	}
	start := time.Now()
	var rep LeaseReply
	err = tr.postJSON(context.Background(), "lease", "http://"+ln.Addr().String()+"/dist/v1/lease",
		&LeaseRequest{V: Version, Worker: "stalled"}, &rep)
	if !errors.Is(err, ErrTransportExhausted) {
		t.Fatalf("err = %v, want ErrTransportExhausted", err)
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T, want *TransportError", err)
	}
	if te.Op != "lease" || te.Attempts != 2 || te.Last == nil {
		t.Fatalf("TransportError = %+v, want op lease after 2 attempts with a cause", te)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("two 50ms attempts took %v; the per-attempt timeout is not bounding the exchange", elapsed)
	}
}

// TestWorkerDefaultClientBounded pins the last line of defense: the
// client a Worker falls back to when the caller supplies none must carry
// an overall timeout, so a hung socket can never block a worker forever
// even with the transport timeouts misconfigured away.
func TestWorkerDefaultClientBounded(t *testing.T) {
	if defaultWorkerClient.Timeout <= 0 {
		t.Fatal("defaultWorkerClient has no overall timeout")
	}
	w := &Worker{}
	if c := w.client(); c.Timeout <= 0 {
		t.Fatalf("Worker.client() timeout = %v, want > 0", c.Timeout)
	}
	// And the bound transport inherits it.
	if tr := w.transport(); tr.Client.Timeout <= 0 {
		t.Fatalf("bound transport client timeout = %v, want > 0", tr.Client.Timeout)
	}
}

// TestTransportRetriesTransient: 5xx replies are transient and must be
// retried until the attempt budget runs out — here two 503s then a 200,
// inside a budget of four.
func TestTransportRetriesTransient(t *testing.T) {
	var hits atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, &CompleteReply{V: Version, Accepted: true})
	}))
	defer hs.Close()

	var slept []time.Duration
	tr := &Transport{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}
	var rep CompleteReply
	if err := tr.postJSON(context.Background(), "complete", hs.URL, &LeaseComplete{V: Version}, &rep); err != nil {
		t.Fatalf("exchange failed despite a sufficient budget: %v", err)
	}
	if !rep.Accepted {
		t.Fatalf("reply = %+v, want the 200 body decoded", rep)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (two 503s + success)", got)
	}
	if len(slept) != 2 {
		t.Fatalf("%d backoff sleeps, want 2", len(slept))
	}
}

// TestTransportFatal4xx: protocol errors (4xx other than 429) cannot be
// fixed by retrying and must surface immediately, without burning the
// budget.
func TestTransportFatal4xx(t *testing.T) {
	var hits atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no such job", http.StatusNotFound)
	}))
	defer hs.Close()

	tr := &Transport{MaxAttempts: 4, BaseDelay: time.Millisecond, Sleep: func(time.Duration) {}}
	var rep CompleteReply
	err := tr.postJSON(context.Background(), "complete", hs.URL, &LeaseComplete{V: Version}, &rep)
	if err == nil {
		t.Fatal("404 exchange reported success")
	}
	if errors.Is(err, ErrTransportExhausted) {
		t.Fatalf("404 burned the retry budget: %v", err)
	}
	var se *statusError
	if !errors.As(err, &se) || se.code != http.StatusNotFound {
		t.Fatalf("err = %v, want the 404 statusError", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want exactly 1 (no retry of a protocol error)", got)
	}
}

// TestTransportBackoffDeterministic pins the seeded jitter: the same
// seed yields the same backoff sequence, a different seed a different
// one — a fleet behind one flaky switch must not retry in lockstep.
func TestTransportBackoffDeterministic(t *testing.T) {
	seq := func(seed uint64) []time.Duration {
		tr := &Transport{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: seed}
		var out []time.Duration
		for k := 0; k < 6; k++ {
			out = append(out, tr.backoff(k))
		}
		return out
	}
	a, b, c := seq(1), seq(1), seq(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d: %v vs %v", i, a[i], b[i])
		}
		lo := (10 * time.Millisecond) << uint(i)
		if lo > 80*time.Millisecond {
			lo = 80 * time.Millisecond
		}
		if a[i] < lo/2 || a[i] >= lo {
			t.Fatalf("backoff[%d] = %v outside [%v, %v)", i, a[i], lo/2, lo)
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

// TestWorkerTransportJitterByName: default transports of differently
// named workers draw different jitter sequences, so a fleet does not
// retry in lockstep, while one name repeats its own sequence.
func TestWorkerTransportJitterByName(t *testing.T) {
	seq := func(name string) []time.Duration {
		w := &Worker{Name: name}
		var out []time.Duration
		for k := 0; k < 4; k++ {
			out = append(out, w.transport().backoff(k))
		}
		return out
	}
	a, b := seq("host-a:1"), seq("host-b:2")
	if reflect.DeepEqual(a, b) {
		t.Fatalf("workers host-a:1 and host-b:2 back off in lockstep: %v", a)
	}
	if again := seq("host-a:1"); !reflect.DeepEqual(a, again) {
		t.Fatalf("one name drew %v, then %v", a, again)
	}
}
