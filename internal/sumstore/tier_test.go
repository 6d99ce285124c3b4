package sumstore_test

import (
	"os"
	"path/filepath"
	"testing"

	"dtaint/internal/fleet"
	"dtaint/internal/sumstore"
	"dtaint/internal/symexec"
)

// TestStoreCorruptDiskFileIsMiss overwrites a persisted blob with
// garbage, once for each codec over the shared tier: the lookups must
// degrade to misses — never bad data or a crash — and the garbage must
// count as no disk hit and take no LRU slot.
func TestStoreCorruptDiskFileIsMiss(t *testing.T) {
	for _, tc := range []struct {
		name, suffix string
		// put stores key "k" through a handle over dir; lookup looks it
		// up twice through a fresh handle, as a new process would.
		put    func(t *testing.T, dir string)
		lookup func(t *testing.T, dir string) (hit bool, st sumstore.Stats)
	}{
		{
			name: "summary store", suffix: ".dtss",
			put: func(t *testing.T, dir string) {
				newStore(t, dir).PutSummary("k", &symexec.Summary{Func: "f"})
			},
			lookup: func(t *testing.T, dir string) (bool, sumstore.Stats) {
				s := newStore(t, dir)
				_, hit1 := s.GetSummary("k")
				_, hit2 := s.GetSummary("k")
				return hit1 || hit2, s.Stats()
			},
		},
		{
			name: "report cache", suffix: ".json",
			put: func(t *testing.T, dir string) {
				newCache(t, dir).Put("k", &fleet.BinaryAnalysis{Binary: "b"})
			},
			lookup: func(t *testing.T, dir string) (bool, sumstore.Stats) {
				c := newCache(t, dir)
				_, hit1 := c.Get("k")
				_, hit2 := c.Get("k")
				return hit1 || hit2, c.Stats()
			},
		},
	} {
		dir := t.TempDir()
		tc.put(t, dir)
		path := filepath.Join(dir, "k"+tc.suffix)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: entry not persisted: %v", tc.name, err)
		}
		if err := os.WriteFile(path, []byte("DTSSgarbage-not-a-valid-blob"), 0o644); err != nil {
			t.Fatal(err)
		}
		hit, st := tc.lookup(t, dir)
		if hit {
			t.Fatalf("%s: corrupt disk file served as a hit", tc.name)
		}
		if want := (sumstore.Stats{Misses: 2}); st != want {
			t.Fatalf("%s: stats = %+v, want %+v", tc.name, st, want)
		}
	}
}

func newStore(t *testing.T, dir string) *sumstore.Store {
	t.Helper()
	s, err := sumstore.NewStore(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newCache(t *testing.T, dir string) *fleet.Cache {
	t.Helper()
	c, err := fleet.NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
