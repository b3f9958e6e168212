package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"poilabel"
	"poilabel/internal/loadgen"
	"poilabel/internal/model"
	"poilabel/internal/trace"
)

// The L world of ROADMAP.md, and the crowd client's protocol timings.
const (
	worldTasks   = 8000
	worldWorkers = 100

	warmup    = 3 * time.Second
	thinkMean = time.Millisecond
	// readEvery is each client's requester read interval. With two clients
	// a 24 s crowd part makes about 160 reads. A p90 with ten samples
	// beyond it needs 100; at the 120 reads a 500 ms interval gives in 30 s,
	// the p90's spread across seeds reached a quarter of its median.
	readEvery = 300 * time.Millisecond
	// rssEvery is how often the measure phase reads the server's resident
	// set.
	rssEvery    = 100 * time.Millisecond
	httpTimeout = 30 * time.Second
	// crowdWorlds is how many worlds one crowd part drives, one after
	// another, each on its own server for an equal share of the measure
	// time. Where a world's workers live decides the shard layout, the
	// migrations and the cost of a plan on crowd-drift, enough to move a
	// single-world run's assignment latency by half from one seed to the
	// next; on crowd-steady one world per run left the results and answer
	// latencies at a fifth of their median apart between seeds. Pooling
	// three worlds averages that out, and gives setup_s three boots.
	crowdWorlds = 3
	// lateAt starts the late window two thirds of the way into each
	// world's measure phase; late_rps is the throughput inside it. On
	// crowd-drift the traffic switches to the hot quadrant there.
	// Assignments cost two to three times as much before the drift, and
	// until the splits land, as after; how soon they get cheap depends on
	// the world. With the switch halfway, the median assignment latency fell
	// on either side of that gap from one seed to the next.
	lateAt = 2.0 / 3
)

// serverArgs are the poiserve flags of each crowd workload. The drift
// workload's 1 s detector tick is the one CI's load smoke test uses; it
// lands a migration within two seconds of the drift.
func serverArgs(workload string, seed int64) []string {
	args := []string{"-seed", strconv.FormatInt(seed, 10), "-bg-fit", "2s", "-bg-min-answers", "256"}
	if workload == wlDrift {
		args = append(args, "-engine", "sharded", "-elastic", "-elastic-check", "1s")
	}
	return args
}

// Endpoints the client records latencies for.
const (
	epAnswer = iota
	epAssign
	epResults
	numEP
)

// clientRec is one client goroutine's record; merged after the clients end.
type clientRec struct {
	lat        [numEP][]float64 // measure-phase latencies, ms; a failure counts as httpTimeout
	measured   int              // requests completed inside the measure phase
	late       int              // of those, completed inside the late window
	attempted  int64
	failed     int64
	acked      []model.Answer // every acknowledged answer
	readBytes  []float64
	staleness  []float64            // ms, from X-Poilabel-Staleness-Seconds
	clientSpan map[string]tracedReq // traced phase: trace ID -> client view
}

// tracedReq is the client's view of one traced request.
type tracedReq struct {
	ep int
	ms float64
}

// Measurement phases.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseDone
)

// crowdRun is one boot of poiserve driven by the crowd client.
type crowdRun struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	world    *loadgen.World
	srv      *server
	hc       *httpClient
	clients  int

	phase    atomic.Int32
	late     atomic.Bool
	hotPool  []int
	allPool  []int
	traceSeq atomic.Uint64
}

// phaseResult is what one crowd run measured.
type phaseResult struct {
	setupS      float64
	measureS    float64
	lateS       float64
	recs        clientRec
	t0, t1      time.Time
	h0, h1      health
	srvCPU      float64 // server CPU seconds in the measure phase
	cliCPU      float64 // benchmark CPU seconds in the measure phase
	runtimeProm []promSample
	finalProm   []promSample
	peakRSS     float64
	rss         []float64 // VmRSS samples in the measure phase, MiB
	traces      map[string]*trace.Trace
	accuracy    float64
	mvAccuracy  float64
	checks      []check
}

// check is one correctness check's outcome.
type check struct {
	name string
	ok   bool
	msg  string
}

// runCrowd runs the crowd part of a workload for total measure time,
// calling between after each untraced world. Untraced, it reports the
// serving end-to-end metrics. Traced, it runs the
// untraced phases for the counters and the generator's and server's CPU,
// then boots the first world again with -trace for the span metrics, and
// reports the per-layer metrics plus the throughput gap between the two
// boots of that world.
func runCrowd(ctx context.Context, cfg config, total time.Duration, rep *report, between func() error) error {
	clients := min(runtime.NumCPU(), 2)
	if clients < 1 {
		clients = 1
	}
	k := crowdWorlds
	measure := total / time.Duration(k)
	var worlds []*loadgen.World
	var phases []*phaseResult
	for i := 0; i < k; i++ {
		seed := cfg.seed*int64(k) + int64(i)
		world, err := loadgen.NewWorld(worldTasks, worldWorkers, seed)
		if err != nil {
			return err
		}
		rep.logf("world %d of %d: %d tasks, %d workers, seed %d, measured for %s",
			i+1, k, len(world.Data.Tasks), len(world.Workers), seed, measure)
		p, err := crowdPhase(ctx, cfg, world, clients, false, measure)
		if err != nil {
			return err
		}
		worlds, phases = append(worlds, world), append(phases, p)
		if err := between(); err != nil {
			return err
		}
	}
	crowdEndToEnd(rep, phases)
	if !cfg.trace {
		return nil
	}
	crowdCounters(rep, phases)
	b, err := crowdPhase(ctx, cfg, worlds[0], clients, true, measure)
	if err != nil {
		return err
	}
	for _, c := range b.checks {
		rep.check(c.ok, "traced "+c.name, c.msg)
	}
	rep.ops(b.recs.attempted, b.recs.failed)
	untraced := float64(phases[0].recs.measured) / phases[0].measureS
	traced := float64(b.recs.measured) / b.measureS
	rep.logf("traced run: %.1f req/s against %.1f req/s untraced on the same world", traced, untraced)
	rep.set("trace.overhead_frac", 1-traced/untraced)
	crowdSpans(rep, b)
	return nil
}

// crowdPhase boots poiserve, registers the world, drives it for warm-up
// plus measure, and checks the outcome.
func crowdPhase(ctx context.Context, cfg config, world *loadgen.World, clients int, traced bool, measure time.Duration) (*phaseResult, error) {
	r := &crowdRun{workload: cfg.workload, seed: cfg.seed, seconds: measure, traced: traced, world: world, clients: clients}
	r.hotPool = world.QuadrantWorkers()
	if len(r.hotPool) == 0 {
		return nil, fmt.Errorf("world has no workers in its most populated quadrant")
	}
	r.allPool = make([]int, len(world.Workers))
	for i := range r.allPool {
		r.allPool[i] = i
	}
	args := serverArgs(cfg.workload, cfg.seed)
	if traced {
		args = append(args, "-trace")
	}
	res := &phaseResult{}
	logPath := filepath.Join(cfg.workdir, "poiserve-"+cfg.workload+".log")
	start := time.Now()
	srv, err := startServer(cfg.poiserve, args, logPath)
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient(srv.base, clients)
	if err := r.setup(ctx, srv, hc); err != nil {
		hc.close()
		srv.stop()
		return nil, err
	}
	res.setupS = time.Since(start).Seconds()
	r.srv, r.hc = srv, hc
	defer r.hc.close()
	err = r.drive(ctx, res)
	if serr := r.srv.stop(); err == nil && serr != nil {
		err = serr
	}
	return res, err
}

// setup waits for the server and registers the world through the public
// API, two connections at a time.
func (r *crowdRun) setup(ctx context.Context, srv *server, hc *httpClient) error {
	if err := hc.awaitReady(ctx, srv, 30*time.Second); err != nil {
		return err
	}
	type taskReq struct {
		ID   string            `json:"id"`
		Task poilabel.TaskSpec `json:"task"`
	}
	type workerReq struct {
		ID     string              `json:"id"`
		Worker poilabel.WorkerSpec `json:"worker"`
	}
	w := r.world
	err := parallel(r.clients, len(w.Data.Tasks), func(i int) error {
		t := w.Data.Tasks[i]
		return hc.postJSON("/tasks", taskReq{ID: w.TaskIDs[i], Task: poilabel.TaskSpec{
			Name: t.Name, Location: t.Location, Labels: t.Labels, Reviews: t.Reviews,
		}}, http.StatusCreated)
	})
	if err != nil {
		return fmt.Errorf("register tasks: %w", err)
	}
	err = parallel(r.clients, len(w.Workers), func(i int) error {
		wk := w.Workers[i]
		return hc.postJSON("/workers", workerReq{ID: w.WorkerIDs[i], Worker: poilabel.WorkerSpec{
			Name: wk.Name, Locations: wk.Locations,
		}}, http.StatusCreated)
	})
	if err != nil {
		return fmt.Errorf("register workers: %w", err)
	}
	var hs health
	if err := hc.getJSON("/healthz", &hs); err != nil {
		return err
	}
	if hs.Tasks != len(w.Data.Tasks) || hs.Workers != len(w.Workers) {
		return fmt.Errorf("server holds %d tasks and %d workers after registering %d and %d",
			hs.Tasks, hs.Workers, len(w.Data.Tasks), len(w.Workers))
	}
	return nil
}

// parallel runs fn(0..n-1) on k goroutines and returns the first error.
func parallel(k, n int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, k)
	var wg sync.WaitGroup
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[g] != nil {
					return
				}
				errs[g] = fn(i)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// drive runs the load, then the end-of-run checks.
func (r *crowdRun) drive(ctx context.Context, res *phaseResult) error {
	loadCtx, stopLoad := context.WithCancel(ctx)
	defer stopLoad()
	recs := make([]clientRec, r.clients)
	var wg sync.WaitGroup
	for i := 0; i < r.clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.client(loadCtx, i, &recs[i])
		}(i)
	}
	var poller *tracePoller
	if r.traced {
		poller = &tracePoller{hc: r.hc, traces: map[string]*trace.Trace{}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			poller.loop(loadCtx)
		}()
	}
	finishLoad := func() {
		stopLoad()
		wg.Wait()
	}

	if err := sleepCtx(ctx, warmup); err != nil {
		finishLoad()
		return err
	}
	var err error
	if res.h0, err = r.healthz(); err != nil {
		finishLoad()
		return err
	}
	srvCPU0, err := procCPUSeconds(r.srv.pid())
	if err != nil {
		finishLoad()
		return err
	}
	cliCPU0 := selfCPUSeconds()
	res.t0 = time.Now()
	r.phase.Store(phaseMeasure)

	pre := time.Duration(float64(r.seconds) * lateAt)
	err = r.sampleRSS(ctx, pre, res)
	tLate := time.Now()
	r.late.Store(true)
	if err == nil {
		err = r.sampleRSS(ctx, r.seconds-pre, res)
	}
	r.phase.Store(phaseDone)
	res.t1 = time.Now()
	if err != nil {
		finishLoad()
		return err
	}
	res.measureS = res.t1.Sub(res.t0).Seconds()
	res.lateS = res.t1.Sub(tLate).Seconds()
	srvCPU1, err := procCPUSeconds(r.srv.pid())
	if err != nil {
		finishLoad()
		return err
	}
	res.srvCPU = srvCPU1 - srvCPU0
	res.cliCPU = selfCPUSeconds() - cliCPU0
	res.h1, err = r.healthz()
	if err == nil {
		res.runtimeProm, err = r.metrics()
	}
	finishLoad()
	if err != nil {
		return err
	}

	for i := range recs {
		res.recs.merge(&recs[i])
	}
	if poller != nil {
		if err := poller.poll(); err != nil {
			return err
		}
		res.traces = poller.traces
	}
	return r.verify(ctx, res)
}

// sampleRSS waits d, reading the server's resident set every rssEvery.
func (r *crowdRun) sampleRSS(ctx context.Context, d time.Duration, res *phaseResult) error {
	pid := strconv.Itoa(r.srv.pid())
	end := time.Now().Add(d)
	for {
		mb, err := procStatusMB(pid, "VmRSS")
		if err != nil {
			return err
		}
		res.rss = append(res.rss, mb)
		left := time.Until(end)
		if left <= 0 {
			return ctx.Err()
		}
		if err := sleepCtx(ctx, min(left, rssEvery)); err != nil {
			return err
		}
	}
}

// healthz reads /healthz.
func (r *crowdRun) healthz() (health, error) {
	var hs health
	err := r.hc.getJSON("/healthz", &hs)
	return hs, err
}

// metrics scrapes /metrics.
func (r *crowdRun) metrics() ([]promSample, error) {
	resp, err := r.hc.do(http.MethodGet, "/metrics", nil, "", true)
	if err != nil {
		return nil, err
	}
	if resp.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.status)
	}
	return parseProm(resp.body)
}

// verify waits until the published generation covers every acknowledged
// answer, then checks that no acknowledged answer was lost, that the
// server's request counters match the client's, and scores the final
// labels.
func (r *crowdRun) verify(ctx context.Context, res *phaseResult) error {
	acked := len(res.recs.acked)
	var hs health
	deadline := time.Now().Add(60 * time.Second)
	for {
		var err error
		if hs, err = r.healthz(); err != nil {
			return err
		}
		if hs.Fit == nil || hs.Fit.CoveredAnswers >= uint64(hs.Answers) && !hs.Fit.InFlight && hs.Fit.QueueDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			res.checks = append(res.checks, check{"fit covers every answer", false,
				fmt.Sprintf("after 60s the published generation covers %d of %d answers", hs.Fit.CoveredAnswers, hs.Answers)})
			break
		}
		if err := sleepCtx(ctx, 50*time.Millisecond); err != nil {
			return err
		}
	}
	res.checks = append(res.checks, check{"no acknowledged answer lost", hs.Answers == acked,
		fmt.Sprintf("server holds %d answers, client was acknowledged %d", hs.Answers, acked)})

	resp, err := r.hc.do(http.MethodGet, "/results", nil, "", true)
	if err != nil {
		return err
	}
	if resp.status != http.StatusOK {
		return fmt.Errorf("final GET /results: status %d", resp.status)
	}
	var body struct {
		Results []poilabel.TaskResult `json:"results"`
	}
	if err := json.Unmarshal(resp.body, &body); err != nil {
		return fmt.Errorf("final GET /results: %w", err)
	}
	res.accuracy, err = resultAccuracy(r.world, body.Results)
	if err != nil {
		return err
	}
	if res.mvAccuracy, err = majorityAccuracy(r.world.Data.Tasks, r.world.Data.Truth, res.recs.acked); err != nil {
		return err
	}

	prom, err := r.metrics()
	if err != nil {
		return err
	}
	res.finalProm = prom
	mismatch := ""
	for _, l := range endpointLabels {
		var server float64
		for _, s := range prom {
			if s.name == "poiserve_http_requests_total" && s.labels["endpoint"] == l {
				server += s.value
			}
		}
		client := r.hc.counts[l].Load()
		if l == "metrics" {
			client-- // the scrape just read is counted only after it is served
		}
		if uint64(server) != client {
			mismatch += fmt.Sprintf(" %s: server %d, client %d;", l, uint64(server), client)
		}
	}
	res.checks = append(res.checks, check{"request counts match poiserve_http_requests_total", mismatch == "", mismatch})
	if res.peakRSS, err = procStatusMB(strconv.Itoa(r.srv.pid()), "VmHWM"); err != nil {
		return err
	}
	return nil
}

// client is one closed-loop crowd client: request two tasks, think, answer
// each; between sessions, read /results about every readEvery.
func (r *crowdRun) client(ctx context.Context, idx int, rec *clientRec) {
	rng := rand.New(rand.NewSource(r.seed*7919 + int64(idx)))
	if r.traced {
		rec.clientSpan = map[string]tracedReq{}
	}
	nextRead := time.Now().Add(time.Duration(rng.Int63n(int64(readEvery))))
	for ctx.Err() == nil {
		if now := time.Now(); !now.Before(nextRead) {
			r.readResults(rec)
			nextRead = nextRead.Add(readEvery)
			if nextRead.Before(now) {
				nextRead = now.Add(readEvery)
			}
		}
		r.session(ctx, rng, rec)
	}
}

// session is one crowd worker's round trip.
func (r *crowdRun) session(ctx context.Context, rng *rand.Rand, rec *clientRec) {
	pool := r.allPool
	if r.workload == wlDrift && r.late.Load() {
		pool = r.hotPool
	}
	wi := pool[rng.Intn(len(pool))]
	wid := r.world.WorkerIDs[wi]
	body, _ := json.Marshal(map[string][]string{"workers": {wid}}) // cannot fail
	resp, ok := r.request(rec, epAssign, http.MethodPost, "/assignments", body, http.StatusOK)
	if !ok {
		sleepCtx(ctx, 20*time.Millisecond)
		return
	}
	var out struct {
		Assignments map[string][]string `json:"assignments"`
	}
	if err := json.Unmarshal(resp.body, &out); err != nil {
		rec.failed++
		return
	}
	tasks := out.Assignments[wid]
	if len(tasks) == 0 {
		sleepCtx(ctx, 4*thinkMean)
		return
	}
	for _, taskID := range tasks {
		// Finish the session even when the run ends: a handed-out pair
		// left unanswered would only muddy the lost-answer check.
		think := time.Duration(rng.ExpFloat64() * float64(thinkMean))
		time.Sleep(min(think, 4*thinkMean))
		ans, err := r.world.AnswerFor(wi, taskID)
		if err != nil {
			rec.attempted++
			rec.failed++
			continue
		}
		body, _ := json.Marshal(map[string]any{"worker": wid, "task": taskID, "selected": ans.Selected}) // cannot fail
		if _, ok := r.request(rec, epAnswer, http.MethodPost, "/answers", body, http.StatusAccepted); ok {
			rec.acked = append(rec.acked, ans)
		}
	}
}

// readResults is one requester read of the published labels.
func (r *crowdRun) readResults(rec *clientRec) {
	resp, ok := r.request(rec, epResults, http.MethodGet, "/results", nil, http.StatusOK)
	if !ok || r.phase.Load() != phaseMeasure {
		return
	}
	rec.readBytes = append(rec.readBytes, float64(resp.n))
	if v, err := strconv.ParseFloat(resp.header.Get("X-Poilabel-Staleness-Seconds"), 64); err == nil {
		rec.staleness = append(rec.staleness, v*1e3)
	}
}

// request sends one load request and records it. A failure counts as a
// latency of httpTimeout, beyond any limit.
func (r *crowdRun) request(rec *clientRec, ep int, method, path string, body []byte, want int) (response, bool) {
	var traceID string
	if r.traced && ep != epResults {
		traceID = trace.FormatID(1<<63 | uint64(r.seed)<<40&(1<<63-1) | r.traceSeq.Add(1))
	}
	resp, err := r.hc.do(method, path, body, traceID, ep != epResults)
	ok := err == nil && resp.status == want
	rec.attempted++
	if !ok {
		rec.failed++
	}
	if r.phase.Load() == phaseMeasure {
		rec.measured++
		if r.late.Load() {
			rec.late++
		}
		ms := float64(resp.elapsed) / 1e6
		if !ok {
			ms = float64(httpTimeout) / 1e6
		}
		rec.lat[ep] = append(rec.lat[ep], ms)
		if traceID != "" && ok {
			rec.clientSpan[traceID] = tracedReq{ep: ep, ms: ms}
		}
	}
	return resp, ok
}

// merge folds o into c.
func (c *clientRec) merge(o *clientRec) {
	for ep := range c.lat {
		c.lat[ep] = append(c.lat[ep], o.lat[ep]...)
	}
	c.measured += o.measured
	c.late += o.late
	c.attempted += o.attempted
	c.failed += o.failed
	c.acked = append(c.acked, o.acked...)
	c.readBytes = append(c.readBytes, o.readBytes...)
	c.staleness = append(c.staleness, o.staleness...)
	if o.clientSpan != nil && c.clientSpan == nil {
		c.clientSpan = map[string]tracedReq{}
	}
	for k, v := range o.clientSpan {
		c.clientSpan[k] = v
	}
}

// resultAccuracy scores the server's labels against the world's ground
// truth the way poilabel.Accuracy does.
func resultAccuracy(w *loadgen.World, results []poilabel.TaskResult) (float64, error) {
	res := model.NewResult(w.Data.Tasks)
	idx := make(map[string]int, len(w.TaskIDs))
	for i, id := range w.TaskIDs {
		idx[id] = i
	}
	seen := 0
	for _, tr := range results {
		i, ok := idx[tr.Task]
		if !ok || len(tr.Inferred) != len(res.Inferred[i]) {
			return 0, fmt.Errorf("results hold an unknown or misshapen task %q", tr.Task)
		}
		copy(res.Inferred[i], tr.Inferred)
		seen++
	}
	if seen != len(w.TaskIDs) {
		return 0, fmt.Errorf("results cover %d of %d tasks", seen, len(w.TaskIDs))
	}
	return poilabel.Accuracy(res, w.Data.Truth), nil
}

// majorityAccuracy is the accuracy of majority voting over the same answers.
func majorityAccuracy(tasks []model.Task, truth *model.GroundTruth, answers []model.Answer) (float64, error) {
	mv, err := poilabel.MajorityVote(tasks, answers)
	if err != nil {
		return 0, err
	}
	return poilabel.Accuracy(mv, truth), nil
}

// crowdEndToEnd reports the end-to-end metrics of the untraced phases,
// pooling their samples.
func crowdEndToEnd(rep *report, ps []*phaseResult) {
	var all clientRec
	var measureS, lateS float64
	var setups, acc, mv, rss []float64
	for _, a := range ps {
		for _, c := range a.checks {
			rep.check(c.ok, c.name, c.msg)
		}
		all.merge(&a.recs)
		measureS += a.measureS
		lateS += a.lateS
		rss = append(rss, a.rss...)
		setups = append(setups, a.setupS)
		acc = append(acc, a.accuracy)
		mv = append(mv, a.mvAccuracy)
		rep.logf("world: %.1f req/s, %.1f req/s late; p99 answers %.3f ms, assignments %.3f ms; peak RSS %.1f MB",
			float64(a.recs.measured)/a.measureS, float64(a.recs.late)/a.lateS,
			quantile(sorted(a.recs.lat[epAnswer]), 0.99), quantile(sorted(a.recs.lat[epAssign]), 0.99), a.peakRSS)
		if a.h0.Elastic != nil && a.h1.Elastic != nil {
			rep.logf("shards: %d when the measure phase began, %d when it ended; %d migrations in between",
				a.h0.Elastic.Shards, a.h1.Elastic.Shards, a.h1.Elastic.Migrations-a.h0.Elastic.Migrations)
		}
	}
	rep.ops(all.attempted, all.failed)
	rep.set("throughput_rps", float64(all.measured)/measureS)
	for _, ep := range []struct {
		name string
		xs   []float64
	}{{"answers", all.lat[epAnswer]}, {"assignments", all.lat[epAssign]}} {
		xs := sorted(ep.xs)
		rep.logf("%s: p90 %.3f ms, p95 %.3f ms, p99 %.3f ms", ep.name, quantile(xs, 0.9), quantile(xs, 0.95), quantile(xs, 0.99))
	}
	rep.set("late_rps", float64(all.late)/lateS)
	rep.timing("answer_p50_ms", all.lat[epAnswer], 0.5)
	rep.timing("assign_p50_ms", all.lat[epAssign], 0.5)
	rep.timing("results_p50_ms", all.lat[epResults], 0.5)
	rep.set("label_accuracy", median(acc))
	rep.logf("label_accuracy %v against majority vote %v on the same answers, per world", acc, mv)
	rep.set("setup_s", median(setups))
	rep.logf("setup_s: median of %d boots %v", len(setups), setups)
	// Resident memory while serving, not its peak: a server's VmHWM is set
	// by whether a migration's rebuild met a /results encode, and on
	// crowd-drift fell at 90 or at 120 MiB from one world to the next.
	rep.set("rss_mb", median(rss))
	rep.logf("rss_mb: median of %d VmRSS samples", len(rss))
}

// counterDeltas is how far the program's counters moved in one measure
// phase.
type counterDeltas struct {
	kAnswers, fits, coalesced                   float64
	lockFree, locked, picks, conflicts          float64
	hits, builds                                float64
	elastic                                     bool
	migrations, splits, merges, aborted, shards float64
	imbalance                                   float64
}

// add sums o's counts into d.
func (d *counterDeltas) add(o counterDeltas) {
	d.kAnswers += o.kAnswers
	d.fits += o.fits
	d.coalesced += o.coalesced
	d.lockFree += o.lockFree
	d.locked += o.locked
	d.picks += o.picks
	d.conflicts += o.conflicts
	d.hits += o.hits
	d.builds += o.builds
	d.elastic = d.elastic || o.elastic
	d.migrations += o.migrations
	d.splits += o.splits
	d.merges += o.merges
	d.aborted += o.aborted
}

func deltas(a *phaseResult) counterDeltas {
	var d counterDeltas
	h0, h1 := a.h0, a.h1
	d.kAnswers = float64(h1.Answers-h0.Answers) / 1e3
	if h0.Fit != nil && h1.Fit != nil {
		d.fits = float64(h1.Fit.Fits - h0.Fit.Fits)
		d.coalesced = float64(h1.Fit.Coalesced - h0.Fit.Coalesced)
	}
	if h0.Plan != nil && h1.Plan != nil {
		d.lockFree = float64(h1.Plan.LockFreePlans - h0.Plan.LockFreePlans)
		d.locked = float64(h1.Plan.LockedPlans - h0.Plan.LockedPlans)
		d.conflicts = float64(h1.Plan.Conflicts - h0.Plan.Conflicts)
		d.picks = float64(h1.Plan.CommittedPicks - h0.Plan.CommittedPicks)
		d.hits = float64(h1.Plan.CandidateHits - h0.Plan.CandidateHits)
		d.builds = float64(h1.Plan.CandidateBuilds - h0.Plan.CandidateBuilds + h1.Plan.CandidateRebuilds - h0.Plan.CandidateRebuilds)
	}
	if h0.Elastic != nil && h1.Elastic != nil {
		d.elastic = true
		d.migrations = float64(h1.Elastic.Migrations - h0.Elastic.Migrations)
		d.splits = float64(h1.Elastic.Splits - h0.Elastic.Splits)
		d.merges = float64(h1.Elastic.Merges - h0.Elastic.Merges)
		d.aborted = float64(h1.Elastic.Aborted - h0.Elastic.Aborted)
		d.shards = float64(h1.Elastic.Shards)
		var sum, mx, n float64
		for _, s := range a.runtimeProm {
			if s.name == "poilabel_shard_answers" {
				sum += s.value
				mx = max(mx, s.value)
				n++
			}
		}
		if sum > 0 {
			d.imbalance = mx / (sum / n)
		}
	}
	return d
}

// crowdCounters reports the per-layer metrics the untraced phases yield:
// generator and server CPU, and the program's own counters. Counts are
// summed over the phases; gauges are the median of the phases' readings.
func crowdCounters(rep *report, ps []*phaseResult) {
	var n, cli, srv, measureS float64
	var gain, bytes, stale, resultsP50, heap, gc, shards, imb, peaks []float64
	var sum counterDeltas
	var all clientRec
	for _, a := range ps {
		all.merge(&a.recs)
		peaks = append(peaks, a.peakRSS)
		n += float64(a.recs.measured)
		cli += a.cliCPU
		srv += a.srvCPU
		measureS += a.measureS
		gain = append(gain, a.accuracy-a.mvAccuracy)
		bytes = append(bytes, a.recs.readBytes...)
		stale = append(stale, a.recs.staleness...)
		if v, ok := promValue(a.finalProm, "poiserve_http_request_duration_seconds", "endpoint", "results", "quantile", "0.5"); ok {
			resultsP50 = append(resultsP50, v*1e3)
		}
		if v, ok := promValue(a.runtimeProm, "poiserve_go_heap_live_bytes"); ok {
			heap = append(heap, v/(1<<20))
		}
		if v, ok := promValue(a.runtimeProm, "poiserve_go_gc_pause_p50_seconds"); ok {
			gc = append(gc, v*1e3)
		}
		d := deltas(a)
		sum.add(d)
		if d.elastic {
			shards = append(shards, d.shards)
		}
		if d.imbalance > 0 {
			imb = append(imb, d.imbalance)
		}
	}
	// The client-side tails are per-layer, not end-to-end: they follow the
	// host's speed several times over. Across five seeds the p99s' spread
	// reached 0.22 to 0.25 of the median on both workloads, at the largest
	// bound an end-to-end metric may carry; across ten, the results p90's
	// reached 0.3.
	rep.timing("client.answer_p99_ms", all.lat[epAnswer], 0.99)
	rep.timing("client.assign_p99_ms", all.lat[epAssign], 0.99)
	rep.timing("client.results_p90_ms", all.lat[epResults], 0.9)
	cliMS, srvMS := cli*1e3/n, srv*1e3/n
	rep.set("client.cpu_ms_per_req", cliMS)
	rep.set("server.cpu_ms_per_req", srvMS)
	if cliMS > srvMS || cli/measureS > 0.9 {
		rep.logf("GENERATOR-BOUND: the client used %.3f ms CPU per request (%.0f%% of a core) against the server's %.3f ms; throughput_rps measures the generator",
			cliMS, 100*cli/measureS, srvMS)
	}
	rep.logf("label accuracy minus majority vote on the crowd's answers, per world: %v", gain)
	rep.set("serve.results_bytes", median(bytes))
	rep.set("fit.staleness_p50_ms", median(stale))
	setMedian(rep, "serve.results_p50_ms", resultsP50)
	setMedian(rep, "server.heap_live_mb", heap)
	setMedian(rep, "server.peak_rss_mb", peaks)
	setMedian(rep, "server.gc_pause_p50_ms", gc)
	if sum.kAnswers > 0 {
		rep.set("fit.per_kanswer", sum.fits/sum.kAnswers)
		rep.set("fit.coalesced_per_kanswer", sum.coalesced/sum.kAnswers)
	}
	// Without a plan section (the sharded engine) every round took the
	// locked path: no lock-free plan, no optimistic commit that could
	// conflict, no candidate cache. Those ratios read 0.
	var lockFree, conflict, hit float64
	if sum.lockFree+sum.locked > 0 {
		lockFree = sum.lockFree / (sum.lockFree + sum.locked)
	}
	if sum.picks+sum.conflicts > 0 {
		conflict = sum.conflicts / (sum.picks + sum.conflicts)
	}
	if sum.hits+sum.builds > 0 {
		hit = sum.hits / (sum.hits + sum.builds)
	}
	rep.set("plan.lock_free_frac", lockFree)
	rep.set("plan.conflict_rate", conflict)
	rep.set("plan.candidate_hit_rate", hit)
	// The single engine has no elastic section: it never migrates and is
	// one shard holding every answer.
	rep.set("migrate.count", sum.migrations)
	rep.set("migrate.splits", sum.splits)
	rep.set("migrate.merges", sum.merges)
	rep.set("migrate.aborted", sum.aborted)
	if !sum.elastic {
		shards, imb = []float64{1}, []float64{1}
	}
	setMedian(rep, "shard.count_end", shards)
	setMedian(rep, "shard.answer_imbalance", imb)
}

// setMedian reports the median of xs, when there is any.
func setMedian(rep *report, name string, xs []float64) {
	if len(xs) > 0 {
		rep.set(name, median(xs))
	}
}
