package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dtaint/internal/corpus"
	"dtaint/internal/diff"
	"dtaint/internal/fleet"
	"dtaint/internal/obs/events"
	"dtaint/internal/sumstore"
)

// The serving layers are measured in release-diff's traced run: the
// version pair goes through a freshly started dtaintd, the old image as a
// scan job (the server's own prior scan into its default cache and
// store), then the pair as a diff job. For each job the client POSTs,
// waits for job.done on /v1/jobs/{id}/events, fetches the report and
// checks it against ground truth. Served latencies are not end-to-end
// metrics: on a shared two-CPU host they varied by 20-40% between runs.

// dtaintd is one server process.
type dtaintd struct {
	cmd      *exec.Cmd
	base     string
	stdout   sync.WaitGroup
	stopOnce sync.Once
}

// startServer starts dtaintd on an ephemeral port with the benchmark's
// worker count and waits until /readyz answers 200.
func startServer(env *runEnv) (*dtaintd, error) {
	if env.dtaintd == "" {
		return nil, errors.New("the traced release-diff run needs --dtaintd")
	}
	logf, err := os.Create(filepath.Join(env.work, "dtaintd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(env.dtaintd, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	cmd.Stderr = logf
	// The server must not outlive the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dtaintd: %w", err)
	}
	s := &dtaintd{cmd: cmd}
	r := bufio.NewReader(stdout)
	line, err := r.ReadString('\n')
	if addr, ok := strings.CutPrefix(strings.TrimSpace(line), "dtaintd: listening on "); ok && err == nil {
		s.base = addr
	}
	s.stdout.Add(1)
	go func() {
		defer s.stdout.Done()
		_, _ = io.Copy(io.Discard, r)
	}()
	if s.base == "" {
		s.stop()
		return nil, fmt.Errorf("dtaintd did not report its address (got %q)", line)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("dtaintd never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop terminates the server and waits for it to exit.
func (s *dtaintd) stop() {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			_ = s.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			<-done
		}
		s.stdout.Wait()
	})
}

// servedJob is one job as the client saw it.
type servedJob struct {
	accept   time.Duration // POST
	report   time.Duration // GET report
	body     []byte        // the report
	refused  bool          // 429
	retries  int           // report fetches answered 409 after job.done
	frames   int           // SSE events received for the job
	maxSeq   uint64
	dropped  int // SSE "dropped" frames
	view     jobView
	problems []string
}

// jobView is the part of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// serve runs one job: submit, wait for job.done, fetch the report and
// the job's timestamps. Transport errors are returned; anything the
// server answered wrongly is recorded in the job's problems.
func serve(base string, body io.Reader, contentType, path string) (*servedJob, error) {
	j := &servedJob{}
	t0 := time.Now()
	resp, err := http.Post(base+path, contentType, body)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	var acc struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	j.accept = time.Since(t0)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		j.refused = true
		j.problems = append(j.problems, "refused with 429")
		return j, nil
	case resp.StatusCode != http.StatusAccepted || err != nil || acc.ID == "":
		j.problems = append(j.problems, fmt.Sprintf("submit answered %d", resp.StatusCode))
		return j, nil
	}
	if err := waitDone(base, acc.ID, j); err != nil {
		return nil, err
	}

	t1 := time.Now()
	// dtaintd journals job.done before the job's state flips to done, so
	// a report fetched right after job.done can answer 409 "not ready".
	// The client retries as the 409 asks; the retries are counted.
	for backoff := time.Millisecond; ; backoff = min(2*backoff, 50*time.Millisecond) {
		resp, err = http.Get(base + "/v1/jobs/" + acc.ID + "/report")
		if err != nil {
			return nil, fmt.Errorf("report: %w", err)
		}
		j.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("report: %w", err)
		}
		if resp.StatusCode != http.StatusConflict || time.Since(t1) > 10*time.Second {
			break
		}
		j.retries++
		time.Sleep(backoff)
	}
	j.report = time.Since(t1)
	if resp.StatusCode != http.StatusOK {
		j.problems = append(j.problems, fmt.Sprintf("report answered %d", resp.StatusCode))
	}

	resp, err = http.Get(base + "/v1/jobs/" + acc.ID)
	if err != nil {
		return nil, fmt.Errorf("job view: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&j.view); err != nil {
		return nil, fmt.Errorf("job view: %w", err)
	}
	return j, nil
}

// waitDone reads the job's SSE stream until its terminal event.
func waitDone(base, id string, j *servedJob) error {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if seq, ok := strings.CutPrefix(line, "id: "); ok {
			j.frames++
			if n, err := strconv.ParseUint(seq, 10, 64); err == nil {
				j.maxSeq = max(j.maxSeq, n)
			}
		}
		switch line {
		case "event: dropped":
			j.dropped++
		case "event: job.done":
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		case "event: job.failed":
			j.problems = append(j.problems, "job failed")
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	j.problems = append(j.problems, "event stream ended without a terminal event")
	return nil
}

// serveDiff sends the pair through a fresh dtaintd, checks both reports
// against ground truth, and reports the serving-layer metrics: the diff
// job's accept, queue, run and report times and report size, and the
// event journal as both jobs' streams showed it.
func serveDiff(env *runEnv, vp *corpus.VersionPair, out *outcome) error {
	srv, err := startServer(env)
	if err != nil {
		return err
	}
	defer srv.stop()
	scan, err := serve(srv.base, bytes.NewReader(vp.Old), "application/octet-stream", "/v1/scan")
	if err != nil {
		return err
	}
	if scan.problems == nil {
		var rep fleet.ImageReport
		if err := json.Unmarshal(scan.body, &rep); err != nil {
			scan.problems = append(scan.problems, "scan report does not decode: "+err.Error())
		} else if want := vp.PersistingVulns + vp.FixedVulns; rep.Vulnerabilities != want || rep.Failed+rep.Stalled > 0 {
			scan.problems = append(scan.problems, fmt.Sprintf("served scan of the old image: %d vulnerabilities and %d failed binaries, ground truth %d and 0",
				rep.Vulnerabilities, rep.Failed+rep.Stalled, want))
		}
	}
	out.check("served scan job", scan.problems)

	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, part := range []struct {
		name string
		data []byte
	}{{"old", vp.Old}, {"new", vp.New}} {
		w, err := mw.CreateFormFile(part.name, part.name+".fwimg")
		if err != nil {
			return err
		}
		if _, err := w.Write(part.data); err != nil {
			return err
		}
	}
	if err := mw.Close(); err != nil {
		return err
	}
	dj, err := serve(srv.base, &body, mw.FormDataContentType(), "/v1/diff")
	if err != nil {
		return err
	}
	if dj.problems == nil {
		var rep diff.Report
		if err := json.Unmarshal(dj.body, &rep); err != nil {
			dj.problems = append(dj.problems, "diff report does not decode: "+err.Error())
		} else {
			problems, _ := checkDiff(vp, &rep, sumstore.Stats{}, sumstore.Stats{})
			dj.problems = append(dj.problems, problems...)
		}
	}
	out.check("served diff job", dj.problems)
	srv.stop()

	v := out.values
	v["dtaintd.accept_ms"] = ms(dj.accept)
	v["dtaintd.queue_wait_ms"] = ms(dj.view.Started.Sub(dj.view.Created))
	v["dtaintd.run_ms"] = ms(dj.view.Finished.Sub(dj.view.Started))
	v["dtaintd.report_ms"] = ms(dj.report)
	v["dtaintd.report_kb"] = float64(len(dj.body)) / 1024
	v["dtaintd.refused"] = 0
	v["dtaintd.report_retries"] = float64(scan.retries + dj.retries)
	v["events.appended"] = float64(dj.maxSeq)
	v["events.per_job"] = float64(dj.frames)
	v["events.high_water"] = float64(min(dj.maxSeq, events.DefaultJournalSize)) // dtaintd's default ring size
	v["events.dropped_frames"] = float64(scan.dropped + dj.dropped)
	for _, j := range []*servedJob{scan, dj} {
		if j.refused {
			v["dtaintd.refused"]++
		}
	}
	fmt.Printf("served: scan job %.1f ms run, diff job %.1f ms run (queue %.2f ms), %d + %d events streamed\n",
		ms(scan.view.Finished.Sub(scan.view.Started)), v["dtaintd.run_ms"], v["dtaintd.queue_wait_ms"], scan.frames, dj.frames)
	return nil
}

// zeroServe marks the serving layers bypassed.
func zeroServe(out *outcome) {
	zero(out, "dtaintd.accept_ms", "dtaintd.queue_wait_ms", "dtaintd.run_ms",
		"dtaintd.report_ms", "dtaintd.report_kb", "dtaintd.refused", "dtaintd.report_retries",
		"events.appended", "events.per_job", "events.high_water", "events.dropped_frames")
}
