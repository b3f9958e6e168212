package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"poilabel/internal/trace"
)

// tracePollEvery is how often the traced run copies /debug/traces. poiserve
// keeps the last 2048 traces; at the L world's request rate that is about
// three seconds of traffic, so a one-second poll misses none.
const tracePollEvery = time.Second

// tracePoller copies every trace poiserve retains, keyed by trace ID.
type tracePoller struct {
	hc     *httpClient
	traces map[string]*trace.Trace // owned by the loop until it returns
}

func (p *tracePoller) loop(ctx context.Context) {
	for sleepCtx(ctx, tracePollEvery) == nil {
		if err := p.poll(); err != nil {
			return // the final poll after the load reports the error
		}
	}
}

func (p *tracePoller) poll() error {
	var body struct {
		Traces []*trace.Trace `json:"traces"`
	}
	if err := p.hc.getJSON("/debug/traces?limit=1000000", &body); err != nil {
		return fmt.Errorf("GET /debug/traces: %w", err)
	}
	for _, tr := range body.Traces {
		p.traces[tr.ID] = tr
	}
	return nil
}

// spanSet groups span durations (ms) by span name.
type spanSet struct {
	dur  map[string][]float64
	self map[string][]float64
}

func newSpanSet() *spanSet {
	return &spanSet{dur: map[string][]float64{}, self: map[string][]float64{}}
}

// add records every span of tr.
func (s *spanSet) add(tr *trace.Trace) {
	self := selfTimesUS(tr.Spans)
	for i, sp := range tr.Spans {
		s.dur[sp.Name] = append(s.dur[sp.Name], float64(sp.DurationUS)/1e3)
		s.self[sp.Name] = append(s.self[sp.Name], float64(self[i])/1e3)
	}
}

// setQ reports the q-quantile of span name's durations as metric, when the
// span occurred.
func (s *spanSet) setQ(rep *report, metric, name string, q float64) {
	s.setFrom(rep, metric, name, s.dur[name], q)
}

func (s *spanSet) setFrom(rep *report, metric, name string, xs []float64, q float64) {
	if len(xs) == 0 {
		rep.logf("%s: no %s spans in the traced run", metric, name)
		return
	}
	rep.set(metric, quantile(sorted(xs), q))
	rep.logf("%s: %d %s spans", metric, len(xs), name)
}

// crowdSpans reports the per-layer metrics a traced crowd phase yields from
// poiserve's span trees, restricted to traces that started inside the
// measure phase.
func crowdSpans(rep *report, b *phaseResult) {
	spans := newSpanSet()
	var fits []*trace.Trace
	var busy time.Duration
	var reqSpans, reqs int
	var netMS [numEP][]float64
	for id, tr := range b.traces {
		if tr.Start.Before(b.t0) || !tr.Start.Before(b.t1) {
			continue
		}
		spans.add(tr)
		switch tr.Root {
		case "answer.request", "plan.request":
			reqSpans += len(tr.Spans)
			reqs++
			if c, ok := b.recs.clientSpan[id]; ok {
				netMS[c.ep] = append(netMS[c.ep], c.ms-tr.DurationMS)
			}
		case "fit.cycle", "migrate.cycle":
			end := tr.Start.Add(time.Duration(tr.DurationMS * float64(time.Millisecond)))
			if end.After(b.t1) {
				end = b.t1
			}
			busy += end.Sub(tr.Start)
			if tr.Root == "fit.cycle" {
				fits = append(fits, tr)
			}
		}
	}
	rep.logf("traced run: %d traces in the measure phase, %d of them requests", len(b.traces), reqs)

	if len(netMS[epAnswer]) > 0 {
		rep.set("net.answer_p50_ms", median(netMS[epAnswer]))
	}
	if len(netMS[epAssign]) > 0 {
		rep.set("net.assign_p50_ms", median(netMS[epAssign]))
	}
	rep.logf("net: %d answers and %d assignments joined by trace ID", len(netMS[epAnswer]), len(netMS[epAssign]))
	if reqs > 0 {
		rep.set("trace.spans_per_req", float64(reqSpans)/float64(reqs))
	}

	spans.setQ(rep, "serve.answer_p50_ms", "answer.request", 0.5)
	spans.setQ(rep, "serve.answer_p99_ms", "answer.request", 0.99)
	spans.setQ(rep, "serve.assign_p50_ms", "plan.request", 0.5)
	spans.setQ(rep, "serve.assign_p99_ms", "plan.request", 0.99)
	answerSpans(rep, spans)

	spans.setQ(rep, "plan.snapshot.p99_ms", "plan.snapshot", 0.99)
	// A round plans either lock-free (plan.plan, then a short plan.commit
	// under the write lock) or entirely under the write lock (plan.locked),
	// whichever the engine and the published generation allow.
	compute := append(append([]float64(nil), spans.dur["plan.plan"]...), spans.dur["plan.locked"]...)
	write := append(append([]float64(nil), spans.dur["plan.commit"]...), spans.dur["plan.locked"]...)
	spans.setFrom(rep, "plan.compute.p50_ms", "plan.plan or plan.locked", compute, 0.5)
	spans.setFrom(rep, "plan.compute.p99_ms", "plan.plan or plan.locked", compute, 0.99)
	spans.setFrom(rep, "plan.write.p99_ms", "plan.commit or plan.locked", write, 0.99)

	spans.setQ(rep, "fit.cycle.p50_ms", "fit.cycle", 0.5)
	spans.setQ(rep, "fit.capture.p99_ms", "fit.capture", 0.99)
	spans.setQ(rep, "fit.rebuild.p50_ms", "fit.rebuild", 0.5)
	spans.setQ(rep, "fit.em.p50_ms", "fit.em", 0.5)
	spans.setQ(rep, "fit.merge.p50_ms", "fit.merge", 0.5)
	spans.setQ(rep, "fit.merge.p99_ms", "fit.merge", 0.99)
	spans.setQ(rep, "fit.swap.p99_ms", "fit.swap", 0.99)
	rep.set("fit.busy_frac", busy.Seconds()/b.t1.Sub(b.t0).Seconds())
	rep.set("fit.redundant", float64(redundantFits(fits)))
	for _, name := range []string{"migrate.cycle", "migrate.rebuild", "migrate.em", "migrate.swap", "fit.shard"} {
		if xs := spans.dur[name]; len(xs) > 0 {
			rep.logf("%s spans: %d, p50 %.2f ms, max %.2f ms", name, len(xs), median(xs), quantile(sorted(xs), 1))
		}
	}
}

// answerSpans reports the service layer's answer-intake spans. The
// unattributed part of answer.submit — its self time — is the wait for
// Service.mu.
func answerSpans(rep *report, spans *spanSet) {
	spans.setQ(rep, "answer.submit.p99_ms", "answer.submit", 0.99)
	spans.setFrom(rep, "answer.submit.self_p99_ms", "answer.submit", spans.self["answer.submit"], 0.99)
	spans.setQ(rep, "answer.learn.p50_ms", "answer.learn", 0.5)
	spans.setQ(rep, "answer.learn.p99_ms", "answer.learn", 0.99)
	spans.setQ(rep, "answer.dedup.p99_ms", "answer.dedup", 0.99)
}

// redundantFits counts fit cycles that captured no answer the previous
// cycle had not already covered: generations published for nothing.
func redundantFits(fits []*trace.Trace) int {
	sort.Slice(fits, func(i, j int) bool { return fits[i].Start.Before(fits[j].Start) })
	n, prev := 0, int64(-1)
	for _, tr := range fits {
		got := int64(-1)
		for _, sp := range tr.Spans {
			if sp.Name != "fit.capture" {
				continue
			}
			for _, a := range sp.Attrs {
				if a.K == "answers" {
					got, _ = strconv.ParseInt(a.V, 10, 64)
				}
			}
		}
		if got >= 0 && got == prev {
			n++
		}
		prev = got
	}
	return n
}
