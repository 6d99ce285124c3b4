package fleet

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"dtaint/internal/dataflow"
	"dtaint/internal/obs"
)

// CacheStats is a snapshot of the report cache's counters.
type CacheStats struct {
	// Hits counts lookups served from memory or disk.
	Hits uint64 `json:"hits"`
	// DiskHits is the subset of Hits that had to read the on-disk tier
	// (a miss in the LRU; the entry is promoted back into memory).
	DiskHits uint64 `json:"diskHits"`
	// Misses counts lookups that found nothing and forced an analysis.
	Misses uint64 `json:"misses"`
	// Evictions counts LRU entries dropped from memory (the disk tier,
	// when configured, never evicts).
	Evictions uint64 `json:"evictions"`
	// Entries is the current in-memory entry count.
	Entries int `json:"entries"`
}

// Publish sets the cache hit ratio gauge in reg — the cache owner's
// call; a cache that saw no lookups publishes nothing.
func (st CacheStats) Publish(reg *obs.Registry) {
	if total := st.Hits + st.Misses; total > 0 {
		reg.Gauge("dtaint_cache_hit_ratio", "Report cache hit ratio over the cache's lifetime.",
			nil).Set(float64(st.Hits) / float64(total))
	}
}

// Cache is the content-addressed report cache: key = SHA-256(binary
// bytes) ⊕ analyzer-options fingerprint, value = the full BinaryAnalysis.
// Firmware fleets share binaries heavily (every image ships busybox, the
// same libc-linked daemons recur across models and versions), so the
// cache turns a fleet scan from O(images × binaries) analyses into
// O(distinct binaries).
//
// Two tiers: a bounded in-memory LRU for the hot set, and an optional
// unbounded on-disk store (one JSON file per key) that survives process
// restarts. Values are stored serialized and decoded on every Get, so
// callers own their copy and cannot corrupt the cache by mutating a
// returned report.
//
// All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	dir     string
	hits    uint64
	disk    uint64
	misses  uint64
	evicted uint64
}

type cacheEntry struct {
	key  string
	blob []byte // JSON-encoded BinaryAnalysis
}

// NewCache returns a cache holding at most maxEntries reports in memory
// (maxEntries <= 0 selects a default of 1024). If dir is non-empty it is
// created if needed and used as the persistent tier.
func NewCache(maxEntries int, dir string) (*Cache, error) {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: cache dir: %w", err)
		}
	}
	return &Cache{
		max:   maxEntries,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		dir:   dir,
	}, nil
}

// Key derives the content-addressed cache key for one binary under one
// analyzer configuration: SHA-256 over the binary bytes, a zero
// separator, and the options fingerprint. Different analyzer options
// therefore never alias, and identical binaries at different rootfs
// paths (or in different images) always do.
func Key(binary []byte, fingerprint string) string {
	h := sha256.New()
	h.Write(binary)
	h.Write([]byte{0})
	h.Write([]byte(fingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// Fingerprint canonicalizes the semantically relevant analyzer options
// into a stable string — the second half of the cache key. It is the
// shared pipeline fingerprint (dataflow.OptionsFingerprint), so report
// cache and summary store invalidate together on an analysis version
// bump. Parallelism is deliberately excluded: the analyzer produces
// bit-identical results for every worker count, so reports are
// shareable across differently parallel runs. A non-nil function filter
// cannot be hashed; callers must supply a filterTag naming it (see
// Options.FilterTag). The orchestrator bypasses the cache entirely for
// a non-nil filter with an empty tag, so an unnameable filter can never
// poison shared entries.
func Fingerprint(o dataflow.Options, filterTag string) string {
	return dataflow.OptionsFingerprint(o, filterTag)
}

// Get looks the key up in memory, then on disk. Disk hits are promoted
// back into the LRU.
func (c *Cache) Get(key string) (*BinaryAnalysis, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		blob := el.Value.(*cacheEntry).blob
		c.hits++
		c.mu.Unlock()
		return decodeAnalysis(blob)
	}
	dir := c.dir
	c.mu.Unlock()

	if dir != "" {
		blob, err := os.ReadFile(c.diskPath(key))
		if err == nil {
			if v, ok := decodeAnalysis(blob); ok {
				c.mu.Lock()
				c.hits++
				c.disk++
				c.insertLocked(key, blob)
				c.mu.Unlock()
				return v, true
			}
		}
	}

	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores the report under key in memory and, when configured, on
// disk. Serialization failures are impossible for well-formed reports;
// disk write failures are ignored (the memory tier still serves).
func (c *Cache) Put(key string, v *BinaryAnalysis) {
	blob, err := json.Marshal(v)
	if err != nil {
		return
	}
	c.mu.Lock()
	c.insertLocked(key, blob)
	dir := c.dir
	c.mu.Unlock()
	if dir != "" {
		// Write-then-rename so a crashed writer never leaves a torn
		// entry for a future Get to decode.
		tmp := c.diskPath(key) + ".tmp"
		if err := os.WriteFile(tmp, blob, 0o644); err == nil {
			_ = os.Rename(tmp, c.diskPath(key))
		}
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		DiskHits:  c.disk,
		Misses:    c.misses,
		Evictions: c.evicted,
		Entries:   len(c.items),
	}
}

func (c *Cache) insertLocked(key string, blob []byte) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).blob = blob
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, blob: blob})
	for len(c.items) > c.max {
		last := c.ll.Back()
		if last == nil {
			break
		}
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
		c.evicted++
	}
}

func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}

func decodeAnalysis(blob []byte) (*BinaryAnalysis, bool) {
	var v BinaryAnalysis
	if err := json.Unmarshal(blob, &v); err != nil {
		return nil, false
	}
	return &v, true
}
