package dtaint_test

import (
	"fmt"
	"log"

	"dtaint"
)

// The smallest end-to-end use: generate a study image, analyze its CGI
// binary, print the deduplicated vulnerabilities.
func Example() {
	fw, err := dtaint.GenerateStudyFirmware("DIR-645", 0.05)
	if err != nil {
		log.Fatal(err)
	}
	report, err := dtaint.New().AnalyzeFirmware(fw, "/htdocs/cgibin")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d vulnerabilities over %d paths\n",
		len(report.Vulnerabilities()), len(report.VulnerablePaths()))
	for _, v := range report.Vulnerabilities() {
		fmt.Printf("%s: %s -> %s in %s\n", v.CWE, v.Source, v.Sink, v.SinkFunc)
	}
	// Output:
	// 4 vulnerabilities over 7 paths
	// CWE-121: getenv -> sprintf in cgi_ck_fmt_cookie
	// CWE-78: getenv -> system in cgi_pg_exec
	// CWE-121: read -> strncpy in cgi_pw_copy_field
	// CWE-121: getenv -> strcpy in cgi_ss_save_session
}

// Restricting analysis to a module and disabling individual analyses
// (ablation switches).
func ExampleNew() {
	fw, err := dtaint.GenerateStudyFirmware("IPC_6201", 0.05)
	if err != nil {
		log.Fatal(err)
	}
	analyzer := dtaint.New(
		dtaint.WithFunctionFilter(dtaint.StudyModuleFilter("IPC_6201")),
		dtaint.WithParallelism(2),
	)
	report, err := analyzer.AnalyzeFirmware(fw, "/usr/bin/mwareserver")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d vulnerability in the RTSP module\n", len(report.Vulnerabilities()))
	// Output:
	// 1 vulnerability in the RTSP module
}

// Extending the Table I vocabulary with vendor-specific sources and
// sinks.
func ExampleWithSink() {
	// nvram_get returns attacker-influenced configuration; flash_write's
	// second argument must not carry unbounded tainted data.
	analyzer := dtaint.New(
		dtaint.WithReturningSource("nvram_get"),
		dtaint.WithSink("flash_write", dtaint.ClassBufferOverflow, 1, 2),
	)
	_ = analyzer
	fmt.Println("vocabulary extended")
	// Output:
	// vocabulary extended
}

// The Section II-A emulation study over the synthetic population.
func ExampleEmulationStudy() {
	total, emulable := 0, 0
	for _, year := range dtaint.EmulationStudy() {
		total += year.Total
		emulable += year.Emulable
	}
	fmt.Printf("%d of %d images boot in the emulator\n", emulable, total)
	// Output:
	// 670 of 6529 images boot in the emulator
}
