package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"poilabel"
	"poilabel/internal/assign"
	"poilabel/internal/core"
	"poilabel/internal/crowd"
	"poilabel/internal/dataset"
	"poilabel/internal/geo"
	"poilabel/internal/model"
	"poilabel/internal/shard"
)

const (
	// batchAnswersPerTask sizes the seeded answer log: 16 000 answers on
	// the L world. Ingest cost grows faster than the answer count, and this
	// size keeps one cycle near two seconds so a run repeats it several
	// times.
	batchAnswersPerTask = 2
)

// batchWorld is the seeded input of the batch part.
type batchWorld struct {
	data      *dataset.Dataset
	workers   []model.Worker
	answers   []model.Answer
	taskIDs   []string
	workerIDs []string
}

func newBatchWorld(seed int64) (*batchWorld, error) {
	data, workers, profiles, err := crowd.DemoWorld(worldTasks, worldWorkers, seed)
	if err != nil {
		return nil, err
	}
	sim, err := crowd.NewSimulator(data, workers, profiles, seed+2)
	if err != nil {
		return nil, err
	}
	set, err := sim.CollectUniform(batchAnswersPerTask)
	if err != nil {
		return nil, err
	}
	w := &batchWorld{data: data, workers: workers, answers: set.All()}
	for i := range data.Tasks {
		w.taskIDs = append(w.taskIDs, fmt.Sprintf("t%d", i))
	}
	for i := range workers {
		w.workerIDs = append(w.workerIDs, fmt.Sprintf("w%d", i))
	}
	return w, nil
}

// newService builds a fresh library Service with synchronous fits: no
// background pipeline, no inline full fits.
func (w *batchWorld) newService(seed int64) (*poilabel.Service, error) {
	return poilabel.NewService(poilabel.WithFullEMInterval(0), poilabel.WithSeed(seed))
}

func (w *batchWorld) register(svc *poilabel.Service) error {
	for i, t := range w.data.Tasks {
		if err := svc.AddTask(w.taskIDs[i], poilabel.TaskSpec{Name: t.Name, Location: t.Location, Labels: t.Labels, Reviews: t.Reviews}); err != nil {
			return err
		}
	}
	for i, wk := range w.workers {
		if err := svc.AddWorker(w.workerIDs[i], poilabel.WorkerSpec{Name: wk.Name, Locations: wk.Locations}); err != nil {
			return err
		}
	}
	return nil
}

// batchCycle is one pass of the batch phases.
type batchCycle struct {
	setup, ingest, fit, plan, encode, restore, recover time.Duration
	learnUS                                            []float64
	snapshotBytes                                      int
	accuracy, mvAccuracy                               float64
	// Direct calls into the kernels, traced runs only.
	directFit  time.Duration
	iterations int
	accopt     time.Duration
	shardFit   time.Duration // a sharded fitter's Fit at the default layout
	splitBuild time.Duration // Rebuild with its busiest shard split in two
	splitFit   time.Duration // Fit of that rebuilt fitter
}

// batchRun is the batch part: in-process library use at paper scale, with
// no network, no lock contention and no fit pipeline. It runs in slices
// between the crowd part's worlds, so that both parts sample the host over
// the whole run: the host's speed drifts by a sixth from one minute to the
// next, and batch phases timed in one stretch at the end of a run followed
// it. Each cycle runs on its own world, generated from the seed and the
// cycle number, so a run's medians average over several worlds rather than
// resting on one.
type batchRun struct {
	cfg    config
	rep    *report
	cycles []batchCycle
	w      *batchWorld
}

// runFor runs cycles for at least d, and at least one.
func (b *batchRun) runFor(ctx context.Context, d time.Duration) error {
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		if b.w, err = newBatchWorld(b.cfg.seed*1000 + int64(len(b.cycles))); err != nil {
			return err
		}
		c, err := b.w.cycle(ctx, b.cfg, b.rep)
		if err != nil {
			return err
		}
		b.cycles = append(b.cycles, c)
	}
	// Hand the crowd part a collected heap too.
	runtime.GC()
	return nil
}

// finish reports the batch part's metrics: medians over its cycles.
func (b *batchRun) finish() error {
	cfg, rep, cycles, w := b.cfg, b.rep, b.cycles, b.w
	rep.logf("world per cycle: %d tasks, %d workers, %d answers, from seed %d", len(w.data.Tasks), len(w.workers), len(w.answers), cfg.seed)
	med := func(f func(c batchCycle) float64) float64 {
		xs := make([]float64, len(cycles))
		for i, c := range cycles {
			xs[i] = f(c)
		}
		return median(xs)
	}
	rep.logf("%d cycles; each phase is the median over cycles", len(cycles))
	for _, c := range cycles {
		rep.logf("cycle: ingest %.3fs fit %.3fs plan %.1fms encode %.1fms restore %.1fms recover %.3fs",
			c.ingest.Seconds(), c.fit.Seconds(), ms(c.plan), ms(c.encode), ms(c.restore), c.recover.Seconds())
	}
	rep.logf("batch set-up (NewService plus registration): %.3fs", med(func(c batchCycle) float64 { return c.setup.Seconds() }))
	rep.set("ingest_s", med(func(c batchCycle) float64 { return c.ingest.Seconds() }))
	rep.set("fit_s", med(func(c batchCycle) float64 { return c.fit.Seconds() }))
	rep.set("plan_round_ms", med(func(c batchCycle) float64 { return ms(c.plan) }))
	rep.set("recover_s", med(func(c batchCycle) float64 { return c.recover.Seconds() }))
	rep.logf("batch label accuracy %.4f against majority vote %.4f on the same answers (medians over cycles)",
		med(func(c batchCycle) float64 { return c.accuracy }), med(func(c batchCycle) float64 { return c.mvAccuracy }))
	if rss, err := procStatusMB("self", "VmHWM"); err == nil {
		rep.logf("benchmark process peak RSS: %.1f MB", rss)
	}
	if !cfg.trace {
		return nil
	}

	var learn []float64
	for _, c := range cycles {
		learn = append(learn, c.learnUS...)
	}
	ingestS := med(func(c batchCycle) float64 { return c.ingest.Seconds() })
	accopt := med(func(c batchCycle) float64 { return ms(c.accopt) })
	rep.set("core.learn_us_per_answer", ingestS*1e6/float64(len(w.answers)))
	rep.set("core.learn.p99_us", quantile(sorted(learn), 0.99))
	rep.set("core.em.iterations", med(func(c batchCycle) float64 { return float64(c.iterations) }))
	rep.set("core.em.iter_ms", med(func(c batchCycle) float64 { return ms(c.directFit) / float64(c.iterations) }))
	rep.set("service.fit_overhead_frac", med(func(c batchCycle) float64 { return c.fit.Seconds()/c.directFit.Seconds() - 1 }))
	rep.set("core.em_vs_mv_gain", med(func(c batchCycle) float64 { return c.accuracy - c.mvAccuracy }))
	rep.set("assign.accopt_ms", accopt)
	rep.set("service.plan_overhead_ms", med(func(c batchCycle) float64 { return ms(c.plan) - ms(c.accopt) }))
	rep.set("snapshot.bytes", med(func(c batchCycle) float64 { return float64(c.snapshotBytes) }))
	rep.set("snapshot.encode_ms", med(func(c batchCycle) float64 { return ms(c.encode) }))
	rep.set("snapshot.restore_ms", med(func(c batchCycle) float64 { return ms(c.restore) }))
	rep.set("shard.fit_ms", med(func(c batchCycle) float64 { return ms(c.shardFit) }))
	rep.set("shard.split.rebuild_ms", med(func(c batchCycle) float64 { return ms(c.splitBuild) }))
	rep.set("shard.split.em_ms", med(func(c batchCycle) float64 { return ms(c.splitFit) }))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cycle builds a Service and runs ingest → Fit → one AccOpt round for every
// worker → Checkpoint → Restore into a fresh Service → Results, checking
// that the restored Service serves the same labels and answer count.
func (w *batchWorld) cycle(ctx context.Context, cfg config, rep *report) (batchCycle, error) {
	var c batchCycle
	// Start every cycle from a collected heap, so that one cycle's garbage
	// is not collected inside the next one's timings.
	runtime.GC()
	t := time.Now()
	svc, err := w.newService(cfg.seed)
	if err != nil {
		return c, err
	}
	defer svc.Close(ctx)
	if err := w.register(svc); err != nil {
		return c, err
	}
	c.setup = time.Since(t)

	c.learnUS = make([]float64, 0, len(w.answers))
	var failed int64
	t = time.Now()
	for _, a := range w.answers {
		s := time.Now()
		if err := svc.SubmitAnswer(w.workerIDs[a.Worker], w.taskIDs[a.Task], a.Selected); err != nil {
			failed++
		}
		c.learnUS = append(c.learnUS, float64(time.Since(s))/1e3)
	}
	c.ingest = time.Since(t)
	rep.ops(int64(len(w.answers)), failed)

	t = time.Now()
	_, err = svc.Fit(ctx)
	c.fit = time.Since(t)
	rep.ops(1, boolInt(err != nil))

	t = time.Now()
	plan, err := svc.RequestTasks(ctx, w.workerIDs)
	c.plan = time.Since(t)
	rep.ops(1, boolInt(err != nil || len(plan) != len(w.workerIDs)))

	var buf bytes.Buffer
	t = time.Now()
	err = svc.Checkpoint(&buf)
	c.encode = time.Since(t)
	c.snapshotBytes = buf.Len()
	rep.ops(1, boolInt(err != nil))

	restored, err := w.newService(cfg.seed)
	if err != nil {
		return c, err
	}
	defer restored.Close(ctx)
	t = time.Now()
	err = restored.Restore(bytes.NewReader(buf.Bytes()))
	c.restore = time.Since(t)
	rep.ops(1, boolInt(err != nil))
	got, err := restored.Results(ctx)
	c.recover = time.Since(t)
	rep.ops(1, boolInt(err != nil))

	want, err := svc.Results(ctx)
	if err != nil {
		return c, err
	}
	rep.check(sameLabels(want, got), "restored Service serves identical labels",
		fmt.Sprintf("%d results before checkpoint, %d after restore, or a label differs", len(want), len(got)))
	rep.check(restored.AnswerCount() == svc.AnswerCount(), "restored Service holds the same answers",
		fmt.Sprintf("AnswerCount %d after restore, %d before", restored.AnswerCount(), svc.AnswerCount()))
	if c.accuracy, err = w.accuracy(want); err != nil {
		return c, err
	}
	if c.mvAccuracy, err = majorityAccuracy(w.data.Tasks, w.data.Truth, w.answers); err != nil {
		return c, err
	}

	if cfg.trace {
		if err := w.direct(&c); err != nil {
			return c, err
		}
		if err := w.directShards(&c); err != nil {
			return c, err
		}
	}
	return c, nil
}

// normalizer is the distance normalizer the Service derives from the
// world: the diameter of every task and worker location.
func (w *batchWorld) normalizer() geo.Normalizer {
	var pts []geo.Point
	for _, t := range w.data.Tasks {
		pts = append(pts, t.Location)
	}
	for _, wk := range w.workers {
		pts = append(pts, wk.Locations...)
	}
	return geo.NewNormalizer(geo.Bound(pts).Diameter())
}

// direct fits core.Model on the same answers from its priors and runs one
// AccOpt round for every worker on the fitted model, without the Service.
func (w *batchWorld) direct(c *batchCycle) error {
	m, err := core.NewModel(w.data.Tasks, w.workers, w.normalizer(), core.DefaultConfig())
	if err != nil {
		return err
	}
	for _, a := range w.answers {
		if err := m.Observe(a); err != nil {
			return err
		}
	}
	t := time.Now()
	st := m.Fit()
	c.directFit, c.iterations = time.Since(t), st.Iterations
	ws := make([]model.WorkerID, len(w.workers))
	for i := range ws {
		ws[i] = model.WorkerID(i)
	}
	t = time.Now()
	assign.NewPlanner().Assign(assign.SnapshotModel(m), ws, 2)
	c.accopt = time.Since(t)
	return nil
}

// directShards times the elastic layer's kernels on the same answers: a
// sharded fitter's Fit at the default layout, then the two off-lock steps
// of a split migration, Rebuild with the busiest shard split in two and
// the Fit of the rebuilt fitter.
func (w *batchWorld) directShards(c *batchCycle) error {
	sh, err := shard.New(w.data.Tasks, w.workers, w.normalizer(), shard.Config{Model: core.DefaultConfig()})
	if err != nil {
		return err
	}
	for _, a := range w.answers {
		if err := sh.Observe(a); err != nil {
			return err
		}
	}
	t := time.Now()
	sh.Fit()
	c.shardFit = time.Since(t)
	busiest, most := 0, -1
	for si, st := range sh.Stats() {
		if st.Answers > most {
			busiest, most = si, st.Answers
		}
	}
	pts := make([]geo.Point, len(w.data.Tasks))
	for i, tk := range w.data.Tasks {
		pts[i] = tk.Location
	}
	layout, err := shard.SplitLayout(pts, sh.Partition(), busiest)
	if err != nil {
		return err
	}
	t = time.Now()
	rebuilt, err := sh.Rebuild(layout)
	c.splitBuild = time.Since(t)
	if err != nil {
		return err
	}
	t = time.Now()
	rebuilt.Fit()
	c.splitFit = time.Since(t)
	return nil
}

// accuracy scores a Service's results against the ground truth.
func (w *batchWorld) accuracy(results []poilabel.TaskResult) (float64, error) {
	res := model.NewResult(w.data.Tasks)
	if len(results) != len(w.taskIDs) {
		return 0, fmt.Errorf("results cover %d of %d tasks", len(results), len(w.taskIDs))
	}
	for i, tr := range results {
		if tr.Task != w.taskIDs[i] || len(tr.Inferred) != len(res.Inferred[i]) {
			return 0, fmt.Errorf("result %d is for task %q, want %q", i, tr.Task, w.taskIDs[i])
		}
		copy(res.Inferred[i], tr.Inferred)
	}
	return poilabel.Accuracy(res, w.data.Truth), nil
}

// sameLabels reports whether two result sets name the same tasks with the
// same inferred labels, in the same order.
func sameLabels(a, b []poilabel.TaskResult) bool {
	return slices.EqualFunc(a, b, func(x, y poilabel.TaskResult) bool {
		return x.Task == y.Task && slices.Equal(x.Inferred, y.Inferred)
	})
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
