package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Exact-count guard. Some counts must repeat exactly whenever the same
// code runs the same workload on the same seed: finding and path counts,
// dataflow components and definition pairs, symbolic states, diff units,
// and in-process cache and store hit counts. Each workload compares them
// between the operations of one run; guardExact compares them with every
// earlier run of the same code, workload, seed and mode, recorded in
// .bench_build/exact-counts.json. A difference is nondeterminism or an
// unsteady workload, so it fails the run before any wall time is
// trusted.

// guardExact checks out.exact against the ledger and records it there.
func guardExact(root, tree, workload string, seed uint64, traced bool, out *outcome) error {
	path := filepath.Join(root, ".bench_build", "exact-counts.json")
	ledger := map[string]map[string]int64{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &ledger); err != nil {
			return fmt.Errorf("exact-count ledger %s: %w", path, err)
		}
	}
	key := fmt.Sprintf("%s/%s/seed-%d/trace-%t", tree, workload, seed, traced)
	if prev, ok := ledger[key]; ok {
		var diffs []string
		for _, name := range sortedKeys(out.exact) {
			if old, ok := prev[name]; ok && old != out.exact[name] {
				diffs = append(diffs, fmt.Sprintf("%s = %d, an earlier run had %d", name, out.exact[name], old))
			}
		}
		out.check("exact-count guard vs earlier runs", diffs)
	}
	ledger[key] = out.exact
	raw, err := json.MarshalIndent(ledger, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// sameCounts compares one operation's counts with the first operation's
// and returns a problem per difference.
func sameCounts(first, got map[string]int64) []string {
	var diffs []string
	for _, name := range sortedKeys(got) {
		if want, ok := first[name]; ok && want != got[name] {
			diffs = append(diffs, fmt.Sprintf("exact count %s = %d, the run's first operation had %d", name, got[name], want))
		}
	}
	return diffs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
