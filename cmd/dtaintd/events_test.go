package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dtaint/internal/corpus"
	"dtaint/internal/fleet"
	"dtaint/internal/obs/events"
)

type sseFrame struct {
	id    uint64
	event string
	data  string
}

// parseSSE reads Server-Sent-Events frames until the stream ends.
func parseSSE(t *testing.T, r io.Reader) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.id = id
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return frames
}

func journalServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	return startTestServer(t, config{queueCap: 4, journal: events.NewJournal(0)})
}

// The SSE acceptance flow: stream a scan job's events and see strictly
// ascending ids, progress events, and a terminal job.done that closes
// the stream.
func TestJobEventsStream(t *testing.T) {
	_, ts := journalServer(t)
	id := postScan(t, ts, testFirmware(t))

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	frames := parseSSE(t, resp.Body)
	if len(frames) == 0 {
		t.Fatal("stream delivered no frames")
	}
	var last uint64
	var sawProgress bool
	for _, f := range frames {
		if f.event == "dropped" {
			continue
		}
		if f.id <= last {
			t.Fatalf("event ids not strictly ascending: %d after %d", f.id, last)
		}
		last = f.id
		var ev events.ScanEvent
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("frame data not a ScanEvent: %v\n%s", err, f.data)
		}
		if ev.Job != id {
			t.Fatalf("job stream leaked event for job %q: %s", ev.Job, f.data)
		}
		if ev.Type == events.TypeProgress {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Fatal("no progress event in the stream")
	}
	if final := frames[len(frames)-1]; final.event != string(events.TypeJobDone) {
		t.Fatalf("final frame = %q, want %q", final.event, events.TypeJobDone)
	}
	// The job state flipped no later than its terminal event reached us.
	v := waitDone(t, ts, id)
	if v.State != stateDone {
		t.Fatalf("job state = %q after terminal event", v.State)
	}
}

// Last-Event-ID resumes a dropped connection exactly where it left off:
// the replay starts after the acknowledged id and still ends in the
// terminal event.
func TestJobEventsResumeAfterDrop(t *testing.T) {
	_, ts := journalServer(t)
	id := postScan(t, ts, testFirmware(t))
	waitDone(t, ts, id)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	full := parseSSE(t, resp.Body)
	resp.Body.Close()
	if len(full) < 3 {
		t.Fatalf("want >= 3 frames to split a resume across, got %d", len(full))
	}

	// Drop the connection "after" the middle event and resume.
	mid := full[len(full)/2]
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.FormatUint(mid.id, 10))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resumed := parseSSE(t, resp.Body)
	resp.Body.Close()

	var wantTail []sseFrame
	for _, f := range full {
		if f.id > mid.id {
			wantTail = append(wantTail, f)
		}
	}
	if len(resumed) != len(wantTail) {
		t.Fatalf("resume replayed %d frames, want %d", len(resumed), len(wantTail))
	}
	for i, f := range resumed {
		if f.id != wantTail[i].id || f.event != wantTail[i].event || f.data != wantTail[i].data {
			t.Fatalf("resume frame %d = %+v, want %+v", i, f, wantTail[i])
		}
	}
	if final := resumed[len(resumed)-1]; final.event != string(events.TypeJobDone) {
		t.Fatalf("resumed stream final frame = %q, want %q", final.event, events.TypeJobDone)
	}

	// A malformed Last-Event-ID is rejected before any streaming.
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed Last-Event-ID = %d, want 400", resp.StatusCode)
	}
}

// The firehose multiplexes every job; a consumer can filter by job id.
func TestEventsFirehose(t *testing.T) {
	_, ts := journalServer(t)
	id := postScan(t, ts, testFirmware(t))
	waitDone(t, ts, id)

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The firehose never terminates on its own; read until the context
	// deadline tears the connection down.
	frames := parseSSE(t, resp.Body)
	var sawJob bool
	for _, f := range frames {
		var ev events.ScanEvent
		if f.event != "dropped" && json.Unmarshal([]byte(f.data), &ev) == nil && ev.Job == id {
			sawJob = true
		}
	}
	if !sawJob {
		t.Fatalf("firehose replayed no events for job %s (%d frames)", id, len(frames))
	}
}

func TestJobEventsUnavailable(t *testing.T) {
	// Journal enabled, job unknown: 404.
	_, ts := journalServer(t)
	resp, err := http.Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events = %d, want 404", resp.StatusCode)
	}

	// Journal disabled: 501 with a hint, even for a real job.
	_, bare := startTestServer(t, config{queueCap: 4})
	id := postScan(t, bare, testFirmware(t))
	resp, err = http.Get(bare.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("disabled journal events = %d, want 501", resp.StatusCode)
	}
	resp, err = http.Get(bare.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("disabled journal firehose = %d, want 501", resp.StatusCode)
	}
}

// Liveness is unconditional; readiness flips to 503 while draining and
// while the queue is saturated.
func TestHealthzReadyz(t *testing.T) {
	s, ts := journalServer(t)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}

	s.setDraining()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || body.Ready || body.Reason != "draining" {
		t.Fatalf("draining readyz = %d %+v, want 503/draining", resp.StatusCode, body)
	}
	// Liveness still answers while draining.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz = %d, want 200", resp.StatusCode)
	}

	// A server with no runner and a full queue is not ready either.
	stuck := newServer(config{queueCap: 1})
	tss := httptest.NewServer(stuck.handler())
	defer tss.Close()
	postScan(t, tss, testFirmware(t))
	resp, err = http.Get(tss.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || body.Reason != "queue saturated" {
		t.Fatalf("saturated readyz = %d %+v, want 503/queue saturated", resp.StatusCode, body)
	}
}

// Once the ring has wrapped, a stream opened without Last-Event-ID starts
// at the oldest buffered event and carries no "dropped" frame: the events
// evicted before the client connected (here another job's) were never
// its to lose. A resume whose Last-Event-ID has aged out of the ring
// still opens with a "dropped" frame counting exactly the missed events.
func TestEventStreamDroppedFrameOnlyOnStaleResume(t *testing.T) {
	const ringSize = 4
	srv, ts := startTestServer(t, config{queueCap: 4, journal: events.NewJournal(ringSize)})
	for i := 0; i < 3*ringSize; i++ {
		srv.cfg.journal.Append(events.ScanEvent{Type: events.TypeProgress, Job: "other"})
	}
	id := postScan(t, ts, testFirmware(t))
	waitDone(t, ts, id)
	head := srv.cfg.journal.Head()

	stream := func(lastID string) []sseFrame {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return parseSSE(t, resp.Body)
	}

	fresh := stream("")
	if len(fresh) == 0 {
		t.Fatal("fresh stream delivered no frames")
	}
	for _, f := range fresh {
		if f.event == "dropped" {
			t.Fatalf("fresh stream on a wrapped ring got a dropped frame: %s", f.data)
		}
		if f.id <= head-ringSize {
			t.Fatalf("fresh stream delivered evicted id %d (head %d, ring %d)", f.id, head, ringSize)
		}
	}
	if final := fresh[len(fresh)-1]; final.event != string(events.TypeJobDone) {
		t.Fatalf("fresh stream final frame = %q, want %q", final.event, events.TypeJobDone)
	}

	resumed := stream("1")
	if len(resumed) == 0 || resumed[0].event != "dropped" {
		t.Fatalf("stale resume did not open with a dropped frame: %+v", resumed)
	}
	if want := fmt.Sprintf(`{"dropped":%d}`, head-ringSize-1); resumed[0].data != want {
		t.Fatalf("stale resume dropped frame = %s, want %s", resumed[0].data, want)
	}
	if final := resumed[len(resumed)-1]; final.event != string(events.TypeJobDone) {
		t.Fatalf("resumed stream final frame = %q, want %q", final.event, events.TypeJobDone)
	}
}

// A diff job's stream speaks the fleet runner's vocabulary: progress
// over the "binaries" stage, binary.done events carrying fleet statuses,
// and a terminal job.done.
func TestDiffJobEventStream(t *testing.T) {
	vp, err := corpus.BuildVersionPair(corpus.VersionPairSpec{
		Binaries: 3, Mutated: 1, SharedFuncs: 10, TailFuncs: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := fleet.NewCache(256, "")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startTestServer(t, config{queueCap: 4, journal: events.NewJournal(0), cache: cache})
	// A prior scan warms the cache, so the diff both replays and analyzes.
	waitDone(t, ts, postScan(t, ts, vp.Old))

	resp := postDiff(t, ts, vp.Old, vp.New)
	var ack struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	frames := parseSSE(t, sresp.Body)
	if len(frames) == 0 {
		t.Fatal("diff stream delivered no frames")
	}

	fleetStatus := map[string]bool{}
	for _, st := range []fleet.Status{fleet.StatusOK, fleet.StatusCached, fleet.StatusFailed,
		fleet.StatusTimeout, fleet.StatusSkipped, fleet.StatusStalled} {
		fleetStatus[string(st)] = true
	}
	statuses := map[string]int{}
	var binaryProgress int
	for _, f := range frames {
		var ev events.ScanEvent
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("frame data not a ScanEvent: %v\n%s", err, f.data)
		}
		switch {
		case ev.Type == events.TypeProgress && ev.Stage == "binaries":
			binaryProgress++
		case ev.Type == events.TypeProgress && ev.Stage == "units":
			t.Errorf("progress event uses the retired %q stage: %s", ev.Stage, f.data)
		case ev.Type == events.TypeBinaryDone:
			st, _ := ev.Attrs["status"].(string)
			if !fleetStatus[st] {
				t.Errorf("binary.done status %q is not a fleet status: %s", st, f.data)
			}
			statuses[st]++
		}
	}
	if binaryProgress == 0 {
		t.Error("no progress event over the binaries stage")
	}
	if statuses[string(fleet.StatusOK)] == 0 || statuses[string(fleet.StatusCached)] == 0 {
		t.Errorf("binary.done statuses = %v, want both ok and cached", statuses)
	}
	if final := frames[len(frames)-1]; final.event != string(events.TypeJobDone) {
		t.Fatalf("final frame = %q, want %q", final.event, events.TypeJobDone)
	}
}
