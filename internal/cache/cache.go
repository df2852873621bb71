// Package cache holds the program's expensive per-graph values: a
// graph's snapshot, its OLS candidate sets and community splits, the
// daemon's loaded graphs, and a dist worker's fetched graphs and
// candidate sets. Each value is built once however many callers ask for
// it at the same time, and each cache keeps a fixed number of completed
// values.
package cache

import "sync"

// Cache maps keys to values built on first request. It is safe for
// concurrent use.
//
// A missing value is built once: the first caller runs its build, and
// the callers that ask for the key meanwhile wait for it. The cache keeps
// at most limit completed values; past that it drops the least recently
// used one, never one still being built. A build's error reaches the
// callers waiting on that build but is not kept, so the next Get builds
// again.
type Cache[K comparable, V any] struct {
	limit   int
	onEvict func(K, V)

	mu    sync.Mutex
	m     map[K]*entry[V]
	clock uint64 // orders entries by last use
}

// entry is one key's build. val and err are written by the building
// caller before ready closes and only read after it; used and kept are
// guarded by the cache's lock, and kept is read without it once ready
// has closed.
type entry[V any] struct {
	ready chan struct{}
	val   V
	err   error
	used  uint64
	kept  bool // a completed value that counts against limit
}

// evicted is a value the bound dropped, handed to onEvict after the lock
// is released.
type evicted[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache that keeps at most limit completed values.
// onEvict, if non-nil, runs once for each value the bound drops. It runs
// after the cache's lock is released, so it may take other locks or call
// back into the cache.
func New[K comparable, V any](limit int, onEvict func(K, V)) *Cache[K, V] {
	return &Cache[K, V]{limit: limit, onEvict: onEvict, m: make(map[K]*entry[V])}
}

// Get returns the value for key, running build when no completed or
// in-flight value for it exists. keep, if non-nil, may refuse a built
// value: it then goes to its own caller only, and the callers waiting on
// it run their own builds, single-flighted among themselves as for a
// missing key. A build that panics is not kept either: its waiters
// likewise build their own, and the panic unwinds the building caller.
func (c *Cache[K, V]) Get(key K, build func() (V, error), keep func(V) bool) (V, error) {
	c.mu.Lock()
	for {
		e, ok := c.m[key]
		if !ok {
			break // c.mu stays held: this caller claims the key below
		}
		c.clock++
		e.used = c.clock
		c.mu.Unlock()
		<-e.ready
		if e.kept || e.err != nil {
			return e.val, e.err
		}
		c.mu.Lock()
	}
	e := &entry[V]{ready: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()

	kept := false
	defer func() { c.settle(key, e, kept) }()
	v, err := build()
	e.val, e.err = v, err
	kept = err == nil && (keep == nil || keep(v))
	return v, err
}

// settle ends e's build and releases its waiters. A kept value joins the
// completed ones, which drops the least recently used past limit; any
// other outcome leaves the map, so the next Get for key builds again.
func (c *Cache[K, V]) settle(key K, e *entry[V], kept bool) {
	var drop []evicted[K, V]
	c.mu.Lock()
	if kept {
		e.kept = true
		c.clock++
		e.used = c.clock
		for {
			n := 0
			var lru K
			var old *entry[V]
			for k, x := range c.m {
				if !x.kept {
					continue // in flight
				}
				if n++; old == nil || x.used < old.used {
					lru, old = k, x
				}
			}
			if n == 0 || n <= c.limit {
				break
			}
			delete(c.m, lru)
			drop = append(drop, evicted[K, V]{lru, old.val})
		}
	} else {
		delete(c.m, key)
	}
	close(e.ready)
	c.mu.Unlock()
	if c.onEvict != nil {
		for _, d := range drop {
			c.onEvict(d.key, d.val)
		}
	}
}

// DeleteFunc removes each completed value for which del returns true.
// del runs without the cache's lock held, and no eviction hook runs for
// what it removes.
func (c *Cache[K, V]) DeleteFunc(del func(K, V) bool) {
	c.mu.Lock()
	held := make(map[K]*entry[V], len(c.m))
	for k, e := range c.m {
		if e.kept {
			held[k] = e
		}
	}
	c.mu.Unlock()
	for k, e := range held {
		if !del(k, e.val) {
			delete(held, k)
		}
	}
	c.mu.Lock()
	for k, e := range held {
		if c.m[k] == e {
			delete(c.m, k)
		}
	}
	c.mu.Unlock()
}
