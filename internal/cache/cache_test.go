package cache

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flight starts a Get for key whose build signals started, then returns
// what release sends it. The Get's results arrive on the returned
// channel.
func flight(c *Cache[int, int], key int, release <-chan int) (started <-chan struct{}, done <-chan int) {
	s, d := make(chan struct{}), make(chan int, 1)
	go func() {
		v, _ := c.Get(key, func() (int, error) {
			close(s)
			return <-release, nil
		}, func(v int) bool { return v >= 0 })
		d <- v
	}()
	return s, d
}

// awaitCallers waits until n more callers have found a key's entry than
// had at clock from: each one that finds it stamps it with the next tick.
func awaitCallers(t *testing.T, c *Cache[int, int], from uint64, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		at := c.clock
		c.mu.Unlock()
		if at >= from+uint64(n) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers reached the entry", at-from, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func clock(c *Cache[int, int]) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clock
}

// completed lists the keys c holds completed values for, in key order.
func completed(c *Cache[int, int]) []int {
	var keys []int
	c.DeleteFunc(func(k, _ int) bool {
		keys = append(keys, k)
		return false
	})
	slices.Sort(keys)
	return keys
}

// TestSingleFlight: goroutines asking for one key at once run one build
// and all get its value.
func TestSingleFlight(t *testing.T) {
	c := New[int, int](4, nil)
	const n = 16
	var builds atomic.Int32
	var arrived, wg sync.WaitGroup
	arrived.Add(n)
	got := make([]int, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived.Done()
			v, err := c.Get(7, func() (int, error) {
				arrived.Wait() // every caller has started: the rest find this build
				return 100 + int(builds.Add(1)), nil
			}, nil)
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("%d callers ran %d builds, want 1", n, b)
	}
	for i, v := range got {
		if v != 101 {
			t.Fatalf("caller %d got %d, want the one build's 101", i, v)
		}
	}
}

// TestErrorNotKept: a build's error reaches the callers waiting on it,
// and the next Get builds again.
func TestErrorNotKept(t *testing.T) {
	c := New[int, int](4, nil)
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := c.Get(1, func() (int, error) {
			close(started)
			<-release
			return 0, boom
		}, nil)
		first <- err
	}()
	<-started
	from := clock(c)
	waiter := make(chan error, 1)
	go func() {
		_, err := c.Get(1, func() (int, error) {
			t.Error("a caller waiting on a failing build ran its own")
			return 0, nil
		}, nil)
		waiter <- err
	}()
	awaitCallers(t, c, from, 1)
	close(release)
	if err := <-first; !errors.Is(err, boom) {
		t.Fatalf("builder got %v, want %v", err, boom)
	}
	if err := <-waiter; !errors.Is(err, boom) {
		t.Fatalf("waiter got %v, want %v", err, boom)
	}
	built := false
	v, err := c.Get(1, func() (int, error) { built = true; return 5, nil }, nil)
	if err != nil || v != 5 || !built {
		t.Fatalf("Get after a failed build = %d, %v (built %v), want a fresh build of 5", v, err, built)
	}
}

// TestKeepRefused: a value keep refuses goes to its own caller only; the
// callers waiting on it run their own build, once between them, and
// that value is kept.
func TestKeepRefused(t *testing.T) {
	c := New[int, int](4, nil)
	release := make(chan int)
	started, done := flight(c, 1, release)
	<-started
	from := clock(c)
	const n = 4
	var builds atomic.Int32
	var wg sync.WaitGroup
	got := make([]int, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = c.Get(1, func() (int, error) { return 10 + int(builds.Add(1)), nil }, nil)
		}()
	}
	awaitCallers(t, c, from, n)
	release <- -1 // refused by flight's keep
	if v := <-done; v != -1 {
		t.Fatalf("builder got %d, want its own refused -1", v)
	}
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("waiters on a refused value ran %d builds, want 1", b)
	}
	for i, v := range got {
		if v != 11 {
			t.Fatalf("waiter %d got %d, want the rebuilt 11", i, v)
		}
	}
	if keys := completed(c); !slices.Equal(keys, []int{1}) {
		t.Fatalf("completed keys %v, want [1]", keys)
	}
}

// TestBoundCountsCompleted: the bound counts completed values only,
// drops the least recently used one, and never a build in flight.
func TestBoundCountsCompleted(t *testing.T) {
	var dropped []int
	c := New[int, int](2, func(k, _ int) { dropped = append(dropped, k) })
	release := make(chan int)
	started, done := flight(c, 0, release)
	<-started
	get := func(k int) {
		t.Helper()
		if _, err := c.Get(k, func() (int, error) { return k, nil }, nil); err != nil {
			t.Fatal(err)
		}
	}
	get(1)
	get(2)
	get(1) // 2 is now the least recently used
	get(3)
	if keys := completed(c); !slices.Equal(keys, []int{1, 3}) {
		t.Fatalf("completed keys %v, want [1 3]", keys)
	}
	c.mu.Lock()
	_, held := c.m[0]
	c.mu.Unlock()
	if !held {
		t.Fatal("the bound dropped a build in flight")
	}
	release <- 0
	if v := <-done; v != 0 {
		t.Fatalf("in-flight build returned %d, want 0", v)
	}
	if keys := completed(c); !slices.Equal(keys, []int{0, 3}) {
		t.Fatalf("completed keys after the flight %v, want [0 3]", keys)
	}
	if !slices.Equal(dropped, []int{2, 1}) {
		t.Fatalf("dropped %v, want [2 1]", dropped)
	}
}

// TestPanicLeavesNoWaiter: a build that panics settles its entry, so a
// caller waiting on it runs its own build instead of blocking, and the
// next Get builds again.
func TestPanicLeavesNoWaiter(t *testing.T) {
	c := New[int, int](4, nil)
	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Get(1, func() (int, error) {
			close(started)
			<-release
			panic("poisoned build")
		}, nil)
	}()
	<-started
	from := clock(c)
	waiter := make(chan int, 1)
	go func() {
		v, _ := c.Get(1, func() (int, error) { return 2, nil }, nil)
		waiter <- v
	}()
	awaitCallers(t, c, from, 1)
	close(release)
	if r := <-recovered; r != "poisoned build" {
		t.Fatalf("builder recovered %v, want its panic", r)
	}
	select {
	case v := <-waiter:
		if v != 2 {
			t.Fatalf("waiter got %d, want its own build's 2", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a caller waiting on a panicked build is still blocked")
	}

	func() {
		defer func() { recover() }()
		c.Get(3, func() (int, error) { panic("again") }, nil)
	}()
	v, err := c.Get(3, func() (int, error) { return 4, nil }, nil)
	if err != nil || v != 4 {
		t.Fatalf("Get after a panicked build = %d, %v, want a fresh build of 4", v, err)
	}
}

// TestEvictHook: the hook runs once for each value the bound drops, may
// call back into the cache, and does not run for DeleteFunc's removals.
func TestEvictHook(t *testing.T) {
	var c *Cache[int, int]
	calls := map[int]int{}
	c = New(1, func(k, v int) {
		if v != 10*k {
			t.Errorf("hook got %d for key %d, want %d", v, k, 10*k)
		}
		calls[k]++
		c.DeleteFunc(func(int, int) bool { return false })
	})
	for k := range 5 {
		if _, err := c.Get(k, func() (int, error) { return 10 * k, nil }, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(calls) != 4 {
		t.Fatalf("hook saw keys %v, want 0..3", calls)
	}
	for k, n := range calls {
		if n != 1 {
			t.Fatalf("hook ran %d times for key %d, want once", n, k)
		}
	}
	c.DeleteFunc(func(k, _ int) bool { return k == 4 })
	if keys := completed(c); len(keys) != 0 {
		t.Fatalf("DeleteFunc left %v", keys)
	}
	if calls[4] != 0 {
		t.Fatal("the hook ran for a DeleteFunc removal")
	}
}
