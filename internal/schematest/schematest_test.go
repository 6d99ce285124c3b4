package schematest

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"dtaint/internal/diff"
	"dtaint/internal/fleet"
)

// listing derives the key-path listing of a wire type from its struct
// fields and json tags, in field order.
func listing(path string, t reflect.Type) []string {
	switch t.Kind() {
	case reflect.Pointer:
		return listing(path, t.Elem())
	case reflect.Slice:
		return append([]string{path}, listing(path+"[]", t.Elem())[1:]...)
	case reflect.Map:
		return append([]string{path}, listing(path+"{}", t.Elem())...)
	}
	out := []string{path}
	if t.Kind() != reflect.Struct {
		return out
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		sub := listing(path+"."+name, f.Type)
		if opts == "omitempty" {
			sub[0] += "?"
		}
		out = append(out, sub...)
	}
	return out
}

// TestReportSchemaGolden pins the three wire types' JSON shape: a field
// added, renamed, retagged, or dropped must update the golden listing in
// the same change, so every consumer sees one versioned schema.
func TestReportSchemaGolden(t *testing.T) {
	var want []string
	for _, r := range []struct {
		section string
		v       any
	}{
		{"binary", fleet.BinaryAnalysis{}},
		{"image", fleet.ImageReport{}},
		{"diff", diff.Report{}},
	} {
		want = append(want, listing(r.section, reflect.TypeOf(r.v))[1:]...)
	}
	got, err := Golden()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s is stale; the wire types now list:\n%s", GoldenPath(), strings.Join(want, "\n"))
	}
}

// TestConform: unknown keys and missing required keys are reported at
// any depth; optional keys and data-keyed maps are accepted.
func TestConform(t *testing.T) {
	golden, err := os.ReadFile(GoldenPath())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(golden), "binary.findings[].evidence?\n") {
		t.Fatal("golden listing lacks the optional finding evidence")
	}
	ok := `{"vendor":"v","product":"p","version":"1","year":2020,"arch":"MIPS","candidates":1,
		"scanned":1,"cached":0,"failed":0,"skipped":0,"vulnerabilities":0,"vulnerablePaths":0,
		"findingsByClass":{"buffer-overflow":1},"workers":1,"wallNanos":5,"binaries":[],
		"cache":{"hits":0,"diskHits":0,"misses":0,"evictions":0,"entries":0},
		"runtime":{"heapAllocBytes":1,"heapSysBytes":1,"totalAllocBytes":1,"goroutines":1,"numGC":0,"gcPauseTotalNanos":0}}`
	if problems, err := Conform("image", []byte(ok)); err != nil || len(problems) != 0 {
		t.Fatalf("conforming image report rejected: %v %v", problems, err)
	}
	bad := strings.Replace(ok, `"workers":1`, `"workerCount":1`, 1)
	bad = strings.Replace(bad, `"binaries":[]`, `"binaries":[{"path":"/bin/x","sha256":"00","status":"ok","durationNanos":1,"extra":true}]`, 1)
	problems, err := Conform("image", []byte(bad))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"missing key image.workers",
		"unknown key image.binaries[].extra",
		"unknown key image.workerCount",
	}
	if !reflect.DeepEqual(problems, want) {
		t.Fatalf("problems = %q, want %q", problems, want)
	}
}
