package crispd

import (
	"container/list"
	"encoding/json"
	"sync"
)

// resultCacheBudget bounds the published-result bytes a server keeps in
// memory: 64 MiB is ~13 000 single-core results (≈5 kB each), far beyond
// the distinct keys of a figure sweep, and small next to the simulator's
// own heap. It is a constant, not a knob: the cache only trades a file
// read + decode + marshal for memory, so no workload needs another value
// to be correct.
const resultCacheBudget = 64 << 20

// resultCache is a byte-budgeted LRU of the wire bytes of published store
// entries, keyed by kind+key. Entries are immutable (see storeResult), so
// a hit hands out the shared slice. It bounds only itself: the job table
// still keeps the bytes of every job this server life finished.
type resultCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	order   *list.List // of *cachedResult, most recently served first
	entries map[jobID]*list.Element

	hits, misses, evictions int64
}

type cachedResult struct {
	at  jobID
	raw json.RawMessage
}

func newResultCache(budget int64) *resultCache {
	return &resultCache{budget: budget, order: list.New(), entries: make(map[jobID]*list.Element)}
}

// get returns the cached bytes for (kind, key), marking them most
// recently served.
func (c *resultCache) get(kind, key string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[jobID{kind, key}]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cachedResult).raw, true
}

// add caches raw under (kind, key), evicting least recently served
// entries until the budget holds. A result larger than the whole budget
// is not cached; a key already present (two requests raced the first
// touch) keeps its entry — the bytes are equal by construction.
func (c *resultCache) add(kind, key string, raw json.RawMessage) {
	size := int64(len(raw))
	c.mu.Lock()
	defer c.mu.Unlock()
	at := jobID{kind, key}
	if _, dup := c.entries[at]; dup || size > c.budget {
		return
	}
	for c.bytes+size > c.budget {
		oldest := c.order.Back()
		old := c.order.Remove(oldest).(*cachedResult)
		delete(c.entries, old.at)
		c.bytes -= int64(len(old.raw))
		c.evictions++
	}
	c.entries[at] = c.order.PushFront(&cachedResult{at: at, raw: raw})
	c.bytes += size
}

func (c *resultCache) stats() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ResultCacheStats{Hits: c.hits, Misses: c.misses, Bytes: c.bytes, Evictions: c.evictions}
}
