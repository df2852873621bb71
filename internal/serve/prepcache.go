package serve

import (
	"sync"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/cache"
)

// graphEntry is one cached graph with its query-serving Searcher. Jobs
// running against an entry hold it directly, so LRU eviction only drops
// the cache's reference — in-flight work is safe.
type graphEntry struct {
	g        *mpmb.Graph
	searcher *mpmb.Searcher
	fp       uint32 // bigraph checksum — the graph fingerprint
}

// graphCache loads graphs on demand and shares one Searcher per distinct
// graph CONTENT: entries are keyed by path for lookup, but once loaded
// they are deduplicated by fingerprint, so two graph names with
// identical bytes share a Searcher — and through it the single-flighted
// prep-candidate cache. Loads are single-flighted per path; capacity is
// bounded with least-recently-used eviction.
type graphCache struct {
	paths *cache.Cache[string, *graphEntry]

	mu   sync.Mutex // guards byFP
	byFP map[uint32]*graphEntry
}

func newGraphCache(size int) *graphCache {
	c := &graphCache{byFP: make(map[uint32]*graphEntry)}
	c.paths = cache.New(size, func(_ string, e *graphEntry) {
		c.mu.Lock()
		if c.byFP[e.fp] == e {
			delete(c.byFP, e.fp)
		}
		c.mu.Unlock()
	})
	return c
}

// get returns the entry for path, loading it if needed. Concurrent
// callers for one path share a single load; a failed load is not kept,
// so a later call retries (a fixed file, a transient read error).
func (c *graphCache) get(path string) (*graphEntry, error) {
	return c.paths.Get(path, func() (*graphEntry, error) {
		g, err := mpmb.LoadGraph(path)
		if err != nil {
			return nil, err
		}
		fp := g.Checksum()
		c.mu.Lock()
		defer c.mu.Unlock()
		if twin, ok := c.byFP[fp]; ok {
			// Same bytes under another name: share its Searcher so the
			// prep-candidate cache is shared too.
			return &graphEntry{g: twin.g, searcher: twin.searcher, fp: fp}, nil
		}
		e := &graphEntry{g: g, searcher: mpmb.NewSearcher(g), fp: fp}
		c.byFP[fp] = e
		return e, nil
	}, nil)
}
