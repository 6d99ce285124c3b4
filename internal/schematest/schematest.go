// Package schematest checks report JSON against the golden key-path
// listing in testdata/report_schema.golden. Every report the project
// emits — dtaint -json, dtaint -rootfs-all -json, dtaint -diff -json,
// and the dtaintd report endpoint — encodes one of three wire types
// (fleet.BinaryAnalysis, fleet.ImageReport, diff.Report), and the
// listing pins their JSON shape: one line per key path, "binary.",
// "image.", or "diff." first, "[]" for array elements, "{}" for the
// values of a map keyed by data, and a trailing "?" on a key that may
// be omitted.
package schematest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// GoldenPath is the listing's location in the source tree.
func GoldenPath() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "..", "..", "testdata", "report_schema.golden")
}

// Golden reads the listing: key path (with its "?" markers) per line,
// comments and blank lines skipped.
func Golden() ([]string, error) {
	raw, err := os.ReadFile(GoldenPath())
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			paths = append(paths, line)
		}
	}
	return paths, nil
}

// Conform checks one JSON document against the golden listing's
// section ("binary", "image", or "diff") and returns one problem per
// key the listing does not know and per required key an object lacks.
func Conform(section string, doc []byte) ([]string, error) {
	golden, err := Golden()
	if err != nil {
		return nil, err
	}
	// optional maps each bare path to whether its last key is omitempty;
	// children maps a bare path to its direct child paths.
	optional := map[string]bool{}
	children := map[string][]string{}
	for _, p := range golden {
		bare := strings.ReplaceAll(p, "?", "")
		optional[bare] = strings.HasSuffix(p, "?")
		if i := strings.LastIndex(bare, "."); i > 0 && !strings.HasSuffix(bare, "{}") {
			children[bare[:i]] = append(children[bare[:i]], bare)
		}
	}
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		return nil, err
	}
	problems := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			if _, isMap := optional[path+"{}"]; isMap {
				for _, k := range sortedKeys(v) {
					walk(path+"{}", v[k])
				}
				return
			}
			for _, k := range sortedKeys(v) {
				child := path + "." + k
				if _, ok := optional[child]; !ok {
					problems["unknown key "+child] = true
					continue
				}
				walk(child, v[k])
			}
			for _, child := range children[path] {
				key := child[len(path)+1:]
				if _, present := v[key]; !present && !optional[child] {
					problems["missing key "+child] = true
				}
			}
		case []any:
			for _, elem := range v {
				walk(path+"[]", elem)
			}
		}
	}
	walk(section, v)
	return sortedKeys(problems), nil
}

// Check fails t with one error per Conform problem in doc, the report
// an output named what printed.
func Check(t testing.TB, what, section string, doc []byte) {
	t.Helper()
	problems, err := Conform(section, doc)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for _, p := range problems {
		t.Errorf("%s: %s", what, p)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
