// Package sumstore is the persistent, content-addressed store for
// function summaries — the corpus-scale throughput lever: a firmware
// corpus links the same libc-shaped code into thousands of binaries, so
// whole-corpus analysis cost should be O(unique functions), not
// O(total functions).
//
// Two entry granularities are cached, matching the pipeline's two
// analysis passes:
//
//   - a phase-1 symexec.Summary per function (the static symbolic pass:
//     scratch tracker, no alias rewriting), keyed by the function's own
//     content only — phase 1 never consults callee summaries;
//   - a bottom-up Entry per call-graph SCC component (the summaries the
//     component exports after alias rewriting, plus the pending sinks,
//     findings, and counters its tracker shard produced), keyed by a
//     Merkle chain: the component's function digests plus the keys of
//     every callee component, so a change anywhere below a component
//     invalidates it transitively.
//
// Keys are derived by the Fingerprinter from the function's decoded
// instructions, the ISA, the string/function-table entries its
// immediates resolve to, its callsite bindings (including structsim
// resolutions), and the versioned analysis-options fingerprint
// (dataflow.OptionsFingerprint). See DESIGN.md §3.4 for the
// invalidation rules.
//
// Values travel in a versioned binary wire format (wire.go): a "DTSS"
// magic, a format version that unknown readers refuse, and a
// length-checked payload, so a corrupt or truncated entry decodes to a
// cache miss — never a crash or a wrong result.
//
// The store itself mirrors the fleet report cache's two tiers: a
// bounded in-memory LRU for the hot set over an optional unbounded
// on-disk tier (one file per key, write-then-rename) that survives
// process restarts. Values are stored serialized and decoded on every
// Get, so callers own their copy. All methods are safe for concurrent
// use.
package sumstore

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"dtaint/internal/obs"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
)

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Hits counts lookups served from memory or disk.
	Hits uint64 `json:"hits"`
	// DiskHits is the subset of Hits that had to read the on-disk tier
	// (a miss in the LRU; the entry is promoted back into memory).
	DiskHits uint64 `json:"diskHits"`
	// Misses counts lookups that found nothing (or found an entry that
	// failed to decode) and forced a symbolic execution.
	Misses uint64 `json:"misses"`
	// Evictions counts LRU entries dropped from memory (the disk tier,
	// when configured, never evicts).
	Evictions uint64 `json:"evictions"`
	// Entries is the current in-memory entry count.
	Entries int `json:"entries"`
}

// Entry is the bottom-up pass's cacheable unit: one SCC component's
// complete contribution. Caching only the summaries would not be enough
// — replaying a component must also reproduce the pending sinks its
// callers will import and the findings the merge concatenates, or a
// warm run would diverge from a cold one.
type Entry struct {
	// Summaries are the component's exported per-function summaries
	// (post alias rewriting), in the component's fixed function order.
	Summaries []*symexec.Summary
	// Pendings are the unresolved sinks climbing out of the component,
	// keyed by function name.
	Pendings map[string][]taint.PendingSink
	// Findings are the component shard's findings, in emission order.
	Findings []taint.Finding
	// DefPairs and Truncated are the component's counter contributions.
	DefPairs  int
	Truncated int
}

// Store is the two-tier summary store. The zero value is not usable;
// construct with NewStore.
type Store struct {
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

type storeEntry struct {
	key  string
	blob []byte // wire-encoded (magic + version + payload)
}

// NewStore returns a store holding at most maxEntries values in memory
// (maxEntries <= 0 selects a default of 4096 — summaries are far
// smaller than whole-binary reports, so the default tier is deeper than
// the report cache's). If dir is non-empty it is created if needed and
// used as the persistent tier.
func NewStore(maxEntries int, dir string) (*Store, error) {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("sumstore: store dir: %w", err)
		}
	}
	return &Store{
		max:   maxEntries,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		dir:   dir,
	}, nil
}

// GetSummary looks up a phase-1 function summary. Any decode failure —
// unknown wire version, corruption, truncation, or a key that resolves
// to a component entry — counts as a miss.
func (s *Store) GetSummary(key string) (*symexec.Summary, bool) {
	blob, ok := s.getBlob(key)
	if !ok {
		return nil, false
	}
	sum, err := DecodeSummary(blob)
	if err != nil {
		s.miss()
		return nil, false
	}
	s.hit()
	return sum, true
}

// PutSummary stores a phase-1 function summary under key.
func (s *Store) PutSummary(key string, sum *symexec.Summary) {
	s.putBlob(key, EncodeSummary(sum))
}

// GetEntry looks up a bottom-up component entry. Any decode failure
// counts as a miss.
func (s *Store) GetEntry(key string) (*Entry, bool) {
	blob, ok := s.getBlob(key)
	if !ok {
		return nil, false
	}
	e, err := DecodeEntry(blob)
	if err != nil {
		s.miss()
		return nil, false
	}
	s.hit()
	return e, true
}

// PutEntry stores a bottom-up component entry under key.
func (s *Store) PutEntry(key string, e *Entry) {
	s.putBlob(key, EncodeEntry(e))
}

// getBlob fetches the raw wire bytes for key: memory first, then disk
// (promoting disk reads back into the LRU). It does NOT touch the
// hit/miss counters on success — the caller classifies the lookup after
// decoding, so a corrupt blob is counted as a miss, not a hit.
func (s *Store) getBlob(key string) ([]byte, bool) {
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		blob := el.Value.(*storeEntry).blob
		s.mu.Unlock()
		return blob, true
	}
	dir := s.dir
	s.mu.Unlock()

	if dir != "" {
		blob, err := os.ReadFile(s.diskPath(key))
		if err == nil {
			s.mu.Lock()
			s.disk++
			s.insertLocked(key, blob)
			s.mu.Unlock()
			return blob, true
		}
	}

	s.miss()
	return nil, false
}

func (s *Store) hit() {
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
}

func (s *Store) miss() {
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
}

func (s *Store) putBlob(key string, blob []byte) {
	s.mu.Lock()
	s.insertLocked(key, blob)
	dir := s.dir
	s.mu.Unlock()
	if dir != "" {
		// Write-then-rename so a crashed writer never leaves a torn
		// entry; a torn entry would only cost a miss anyway, but the
		// rename keeps the disk tier clean.
		tmp := s.diskPath(key) + ".tmp"
		if err := os.WriteFile(tmp, blob, 0o644); err == nil {
			_ = os.Rename(tmp, s.diskPath(key))
		}
	}
}

// Stats returns a snapshot of the counters (zero for a nil store).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:      s.hits,
		DiskHits:  s.disk,
		Misses:    s.misses,
		Evictions: s.evicted,
		Entries:   len(s.items),
	}
}

// PublishMetrics exports the store's lifetime counters into an obs
// registry (Store semantics: idempotent snapshots, shareable across
// many analyses over the same store).
func (s *Store) PublishMetrics(reg *obs.Registry) { s.Stats().Publish(reg) }

// Publish exports a store snapshot's counters into reg — the store
// owner's call, not the analysis's. A snapshot of a store that was
// never used (or of no store) publishes nothing.
func (st Stats) Publish(reg *obs.Registry) {
	if st == (Stats{}) {
		return
	}
	reg.Counter("dtaint_sumstore_hits_total",
		"Summary-store lookups served from memory or disk.", nil).Store(st.Hits)
	reg.Counter("dtaint_sumstore_disk_hits_total",
		"Summary-store hits served from the on-disk tier.", nil).Store(st.DiskHits)
	reg.Counter("dtaint_sumstore_misses_total",
		"Summary-store lookups that forced a symbolic execution.", nil).Store(st.Misses)
	reg.Counter("dtaint_sumstore_evictions_total",
		"Summary-store LRU entries dropped from memory.", nil).Store(st.Evictions)
	reg.Gauge("dtaint_sumstore_entries",
		"Summary-store in-memory entry count.", nil).Set(float64(st.Entries))
}

func (s *Store) insertLocked(key string, blob []byte) {
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		el.Value.(*storeEntry).blob = blob
		return
	}
	s.items[key] = s.ll.PushFront(&storeEntry{key: key, blob: blob})
	for len(s.items) > s.max {
		last := s.ll.Back()
		if last == nil {
			break
		}
		s.ll.Remove(last)
		delete(s.items, last.Value.(*storeEntry).key)
		s.evicted++
	}
}

func (s *Store) diskPath(key string) string {
	return filepath.Join(s.dir, key+".dtss")
}
