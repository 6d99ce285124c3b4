package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dtaint"
	"dtaint/internal/corpus"
	"dtaint/internal/schematest"
)

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJSONOutputsMatchSchema: dtaint -json, -rootfs-all -json, and
// -diff -json all print the wire types of testdata/report_schema.golden.
// Single-binary -json lists every finding, sanitized ones included,
// exactly as the library reports them.
func TestJSONOutputsMatchSchema(t *testing.T) {
	fw, _ := writeCorpus(t)
	bin := captureStdout(t, func() error {
		_, err := run(cliOptions{fwPath: fw, binPath: "/htdocs/cgibin", jsonOut: true})
		return err
	})
	schematest.Check(t, "dtaint -json", "binary", bin)
	var got dtaint.Report
	if err := json.Unmarshal(bin, &got); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(fw)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dtaint.New().AnalyzeFirmware(raw, "/htdocs/cgibin")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Findings) != len(want.Findings) || len(got.Findings) == 0 {
		t.Fatalf("dtaint -json lists %d findings, the library reports %d", len(got.Findings), len(want.Findings))
	}
	for i, f := range got.Findings {
		if f.CWE == "" || f.CWE != want.Findings[i].CWE || f.Sanitized != want.Findings[i].Sanitized {
			t.Fatalf("finding %d = %+v, want %+v", i, f, want.Findings[i])
		}
	}

	img := captureStdout(t, func() error {
		_, _, err := runFleet(cliOptions{fwPath: fw, jsonOut: true})
		return err
	})
	schematest.Check(t, "dtaint -rootfs-all -json", "image", img)

	vp, err := corpus.BuildVersionPair(corpus.VersionPairSpec{
		Binaries: 2, Mutated: 1, SharedFuncs: 8, TailFuncs: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	oldFile, newFile := filepath.Join(dir, "old.fwimg"), filepath.Join(dir, "new.fwimg")
	if err := os.WriteFile(oldFile, vp.Old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newFile, vp.New, 0o644); err != nil {
		t.Fatal(err)
	}
	d := captureStdout(t, func() error {
		_, _, err := runDiff(cliOptions{jsonOut: true}, oldFile, newFile)
		return err
	})
	schematest.Check(t, "dtaint -diff -json", "diff", d)
}
