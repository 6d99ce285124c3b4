package sumstore

import (
	"container/list"
	"os"
	"path/filepath"
	"sync"

	"dtaint/internal/obs"
)

// Stats is a snapshot of a tier's counters.
type Stats struct {
	// Hits counts lookups served from memory or disk.
	Hits uint64 `json:"hits"`
	// DiskHits is the subset of Hits that had to read the on-disk tier
	// (a miss in the LRU; the entry is promoted back into memory).
	DiskHits uint64 `json:"diskHits"`
	// Misses counts lookups that found nothing, or found a blob that
	// failed to decode, and so forced an analysis.
	Misses uint64 `json:"misses"`
	// Evictions counts LRU entries dropped from memory (the disk tier,
	// when configured, never evicts).
	Evictions uint64 `json:"evictions"`
	// Entries is the current in-memory entry count.
	Entries int `json:"entries"`
}

// Publish exports the snapshot into reg as dtaint_<prefix>_* series —
// the tier owner's call, not the analysis's. A snapshot of a tier that
// was never used publishes nothing, and the hit ratio needs a lookup.
func (st Stats) Publish(reg *obs.Registry, prefix string) {
	if st == (Stats{}) {
		return
	}
	name := "dtaint_" + prefix + "_"
	reg.Counter(name+"hits_total", "Lookups served from memory or disk.", nil).Store(st.Hits)
	reg.Counter(name+"disk_hits_total", "Hits served from the on-disk tier.", nil).Store(st.DiskHits)
	reg.Counter(name+"misses_total", "Lookups that found no decodable entry.", nil).Store(st.Misses)
	reg.Counter(name+"evictions_total", "LRU entries dropped from memory.", nil).Store(st.Evictions)
	reg.Gauge(name+"entries", "In-memory entry count.", nil).Set(float64(st.Entries))
	if total := st.Hits + st.Misses; total > 0 {
		reg.Gauge(name+"hit_ratio", "Hit ratio over the tier's lifetime.", nil).Set(float64(st.Hits) / float64(total))
	}
}

// Tier is the two-tier blob store behind both the fleet report cache
// and the summary store: a bounded in-memory LRU for the hot set over
// an optional unbounded on-disk directory (one file per key,
// write-then-rename) that survives process restarts. A tier holds
// encoded bytes; its owner is the codec, so callers decode their own
// copy on every lookup and cannot corrupt the tier by mutating it.
//
// All methods are safe for concurrent use.
type Tier struct {
	mu     sync.Mutex
	max    int
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	dir    string
	suffix string
	stats  Stats // Entries is filled in by Stats
}

type tierEntry struct {
	key  string
	blob []byte
}

// NewTier returns a tier holding at most maxEntries blobs in memory. If
// dir is non-empty it is created if needed and used as the persistent
// tier, one <key><suffix> file per entry.
func NewTier(maxEntries int, dir, suffix string) (*Tier, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &Tier{
		max:    maxEntries,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
		dir:    dir,
		suffix: suffix,
	}, nil
}

// Get looks key up in memory, then on disk, and decodes the blob. The
// lookup counts as a hit, and a disk blob is promoted into memory, only
// once decode accepts it: a corrupt, truncated, or foreign blob is a
// miss that occupies no LRU slot.
func Get[T any](t *Tier, key string, decode func([]byte) (T, error)) (T, bool) {
	t.mu.Lock()
	var blob []byte
	el, found := t.items[key]
	if found {
		t.ll.MoveToFront(el)
		blob = el.Value.(*tierEntry).blob
	}
	t.mu.Unlock()
	fromDisk := false
	if !found && t.dir != "" {
		if b, err := os.ReadFile(t.path(key)); err == nil {
			blob, found, fromDisk = b, true, true
		}
	}
	var v T
	var err error
	if found {
		v, err = decode(blob)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if !found || err != nil {
		t.stats.Misses++
		var zero T
		return zero, false
	}
	t.stats.Hits++
	if fromDisk {
		t.stats.DiskHits++
		t.insertLocked(key, blob)
	}
	return v, true
}

// Put stores blob under key in memory and, when configured, on disk.
// Disk write failures are ignored: the memory tier still serves.
func (t *Tier) Put(key string, blob []byte) {
	t.mu.Lock()
	t.insertLocked(key, blob)
	t.mu.Unlock()
	if t.dir != "" {
		// Write-then-rename so a crashed writer never leaves a torn
		// entry for a future Get to decode.
		tmp := t.path(key) + ".tmp"
		if err := os.WriteFile(tmp, blob, 0o644); err == nil {
			_ = os.Rename(tmp, t.path(key))
		}
	}
}

// Stats returns a snapshot of the counters.
func (t *Tier) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	st.Entries = len(t.items)
	return st
}

func (t *Tier) insertLocked(key string, blob []byte) {
	if el, ok := t.items[key]; ok {
		t.ll.MoveToFront(el)
		el.Value.(*tierEntry).blob = blob
		return
	}
	t.items[key] = t.ll.PushFront(&tierEntry{key: key, blob: blob})
	for len(t.items) > t.max {
		last := t.ll.Back()
		if last == nil {
			break
		}
		t.ll.Remove(last)
		delete(t.items, last.Value.(*tierEntry).key)
		t.stats.Evictions++
	}
}

func (t *Tier) path(key string) string {
	return filepath.Join(t.dir, key+t.suffix)
}
