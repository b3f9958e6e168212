package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// server is one poiserve process the benchmark started.
type server struct {
	cmd     *exec.Cmd
	base    string
	done    chan struct{} // closed once the process has exited
	waitErr error
	logFile *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts bin with args plus a loopback -addr and -debug-addr,
// logging to logPath. The process gets SIGKILL if the benchmark dies first.
func startServer(bin string, args []string, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dport, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args = append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-debug-addr", fmt.Sprintf("127.0.0.1:%d", dport),
	}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan struct{}), logFile: logFile}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, which makes poiserve drain and exit, and waits for
// the process; after 20 s it kills it.
func (s *server) stop() error {
	defer s.logFile.Close()
	select {
	case <-s.done:
		return fmt.Errorf("poiserve exited early: %v", s.waitErr)
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an error means it already exited; done reports that
	select {
	case <-s.done:
		return nil
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("poiserve did not stop within 20s of SIGTERM")
	}
}

// endpointLabels are the label values of poiserve_http_requests_total.
var endpointLabels = []string{"tasks", "workers", "answers", "assignments", "checkpoint", "results", "healthz", "metrics", "worker_get", "other"}

// httpClient issues the benchmark's requests and counts every response per
// server endpoint label, for the check against the server's own counters.
type httpClient struct {
	base   string
	c      *http.Client
	counts map[string]*atomic.Uint64 // read-only map; atomic values
}

func newHTTPClient(base string, conns int) *httpClient {
	h := &httpClient{
		base: base,
		c: &http.Client{
			Timeout: httpTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				MaxIdleConns:        conns,
			},
		},
		counts: make(map[string]*atomic.Uint64, len(endpointLabels)),
	}
	for _, l := range endpointLabels {
		h.counts[l] = new(atomic.Uint64)
	}
	return h
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// label maps a path onto poiserve's endpoint label.
func label(path string) string {
	p := path
	if i := strings.IndexByte(p, '?'); i >= 0 {
		p = p[:i]
	}
	switch p {
	case "/tasks", "/workers", "/answers", "/assignments", "/checkpoint", "/results", "/healthz", "/metrics":
		return strings.TrimPrefix(p, "/")
	}
	return "other"
}

// response is one completed request.
type response struct {
	status  int
	body    []byte // nil when the caller asked to discard it
	n       int64  // body bytes
	header  http.Header
	elapsed time.Duration
}

// do sends one request and reads the whole body. It never cancels a request
// in flight: a response the server produced must be counted on both sides.
func (h *httpClient) do(method, path string, body []byte, traceID string, keepBody bool) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return response{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceID != "" {
		req.Header.Set("X-Poilabel-Trace", traceID)
	}
	start := time.Now()
	resp, err := h.c.Do(req)
	if err != nil {
		return response{elapsed: time.Since(start)}, err
	}
	defer resp.Body.Close()
	out := response{status: resp.StatusCode, header: resp.Header}
	if keepBody {
		out.body, err = io.ReadAll(resp.Body)
		out.n = int64(len(out.body))
	} else {
		out.n, err = io.Copy(io.Discard, resp.Body)
	}
	out.elapsed = time.Since(start)
	if err != nil {
		return out, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	h.counts[label(path)].Add(1)
	return out, nil
}

// getJSON GETs path and decodes a 200 response into v.
func (h *httpClient) getJSON(path string, v any) error {
	r, err := h.do(http.MethodGet, path, nil, "", true)
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, r.status, bytes.TrimSpace(r.body))
	}
	return json.Unmarshal(r.body, v)
}

// postJSON POSTs v and fails unless the status is want.
func (h *httpClient) postJSON(path string, v any, want int) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	r, err := h.do(http.MethodPost, path, body, "", true)
	if err != nil {
		return err
	}
	if r.status != want {
		return fmt.Errorf("POST %s: status %d: %s", path, r.status, bytes.TrimSpace(r.body))
	}
	return nil
}

// health mirrors the parts of poiserve's /healthz body the benchmark reads.
type health struct {
	OK      bool `json:"ok"`
	Tasks   int  `json:"tasks"`
	Workers int  `json:"workers"`
	Answers int  `json:"answers"`
	Fit     *struct {
		Generation     uint64 `json:"generation"`
		QueueDepth     int    `json:"queue_depth"`
		InFlight       bool   `json:"in_flight"`
		Fits           uint64 `json:"fits"`
		Coalesced      uint64 `json:"coalesced"`
		CoveredAnswers uint64 `json:"covered_answers"`
	} `json:"fit"`
	Plan *struct {
		LockFreePlans     uint64 `json:"lock_free_plans"`
		LockedPlans       uint64 `json:"locked_plans"`
		CommittedPicks    uint64 `json:"committed_picks"`
		Conflicts         uint64 `json:"conflicts"`
		CandidateBuilds   uint64 `json:"candidate_builds"`
		CandidateRebuilds uint64 `json:"candidate_rebuilds"`
		CandidateHits     uint64 `json:"candidate_hits"`
	} `json:"plan"`
	Elastic *struct {
		Shards     int    `json:"shards"`
		Migrations uint64 `json:"migrations"`
		Splits     uint64 `json:"splits"`
		Merges     uint64 `json:"merges"`
		Aborted    uint64 `json:"aborted"`
	} `json:"elastic"`
}

// awaitReady polls /healthz until the server answers.
func (h *httpClient) awaitReady(ctx context.Context, s *server, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		var hs health
		err := h.getJSON("/healthz", &hs)
		if err == nil && hs.OK {
			return nil
		}
		select {
		case <-s.done:
			return fmt.Errorf("poiserve exited during start-up: %v", s.waitErr)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("poiserve not ready within %s: %v", within, err)
		}
		if err := sleepCtx(ctx, 10*time.Millisecond); err != nil {
			return err
		}
	}
}

// promSample is one line of Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses the Prometheus text format poiserve's /metrics serves.
func parseProm(body []byte) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics line %q: %w", line, err)
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[i+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// promValue returns the value of the first sample named name whose labels
// include every given key=value pair.
func promValue(samples []promSample, name string, kv ...string) (float64, bool) {
next:
	for _, s := range samples {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if s.labels[kv[i]] != kv[i+1] {
				continue next
			}
		}
		return s.value, true
	}
	return 0, false
}

// procCPUSeconds returns user+system CPU time of process pid.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, fixed at 100 on Linux.
const clockTicks = 100

// selfCPUSeconds returns this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procStatusMB returns a kB field of process pid's /proc status ("self"
// for this process), such as VmHWM or VmRSS, in MiB.
func procStatusMB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bad %s line %q", field, line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no " + field + " in /proc status")
}

// sleepCtx sleeps d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
