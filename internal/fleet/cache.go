package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"dtaint/internal/dataflow"
	"dtaint/internal/sumstore"
)

// CacheStats is a snapshot of the report cache's counters: the same
// type as the summary store's, since both are one Tier.
type CacheStats = sumstore.Stats

// Cache is the content-addressed report cache: key = SHA-256(binary
// bytes) ⊕ analyzer-options fingerprint, value = the full BinaryAnalysis.
// Firmware fleets share binaries heavily (every image ships busybox, the
// same libc-linked daemons recur across models and versions), so the
// cache turns a fleet scan from O(images × binaries) analyses into
// O(distinct binaries).
//
// The cache is the JSON codec over a sumstore.Tier, the two-tier blob
// store it shares with the summary store: a bounded in-memory LRU for
// the hot set over an optional unbounded on-disk directory of
// <key>.json files that survives process restarts. Values are decoded
// on every Get, so callers own their copy and cannot corrupt the cache
// by mutating a returned report.
//
// All methods are safe for concurrent use.
type Cache struct {
	tier *sumstore.Tier
}

// NewCache returns a cache holding at most maxEntries reports in memory
// (maxEntries <= 0 selects a default of 1024). If dir is non-empty it is
// created if needed and used as the persistent tier.
func NewCache(maxEntries int, dir string) (*Cache, error) {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	t, err := sumstore.NewTier(maxEntries, dir, ".json")
	if err != nil {
		return nil, fmt.Errorf("fleet: cache dir: %w", err)
	}
	return &Cache{tier: t}, nil
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
// back into the LRU; an entry that fails to decode is a miss.
func (c *Cache) Get(key string) (*BinaryAnalysis, bool) {
	return sumstore.Get(c.tier, key, decodeAnalysis)
}

// Put stores the report under key in memory and, when configured, on
// disk. Serialization failures are impossible for well-formed reports.
func (c *Cache) Put(key string, v *BinaryAnalysis) {
	if blob, err := json.Marshal(v); err == nil {
		c.tier.Put(key, blob)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats { return c.tier.Stats() }

func decodeAnalysis(blob []byte) (*BinaryAnalysis, error) {
	var v BinaryAnalysis
	if err := json.Unmarshal(blob, &v); err != nil {
		return nil, err
	}
	return &v, nil
}
