package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"poilabel/internal/trace"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	// A sharded fit: fit.em holds three fit.shard children, two of them
	// running in parallel, and one child that runs past the parent's end.
	spans := []trace.SpanView{
		{Name: "fit.cycle", Parent: -1, StartUS: 0, DurationUS: 200},
		{Name: "fit.em", Parent: 0, StartUS: 0, DurationUS: 100},
		{Name: "fit.shard", Parent: 1, StartUS: 10, DurationUS: 40}, // 10..50
		{Name: "fit.shard", Parent: 1, StartUS: 20, DurationUS: 40}, // 20..60, overlaps
		{Name: "fit.shard", Parent: 1, StartUS: 90, DurationUS: 30}, // 90..120, clipped to 100
		{Name: "fit.swap", Parent: 0, StartUS: 150, DurationUS: 10},
	}
	got := selfTimesUS(spans)
	want := []int64{
		200 - 100 - 10,  // children fit.em and fit.swap; grandchildren do not count
		100 - (50 + 10), // union 10..60 and 90..100
		40, 40, 30, 10,  // leaves
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %dus, want %dus", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestUnionOfDisjointAndNestedIntervals(t *testing.T) {
	iv := [][2]int64{{50, 60}, {0, 10}, {2, 5}, {10, 20}}
	if got := unionUS(iv); got != 30 {
		t.Fatalf("union = %d, want 30", got)
	}
	if got := unionUS(nil); got != 0 {
		t.Fatalf("empty union = %d", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed, so tail must sort
		}
		return xs
	}
	if _, err := tail(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	v, err := tail(seq(1000), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if v != 990 || beyond(1000, 0.99) != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond(1000, 0.99))
	}
	if _, err := tail(seq(99), 0.9); err == nil {
		t.Fatal("p90 of 99 samples must be refused")
	}
	if v, err := tail(seq(100), 0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkFile(t)
	var wls []string
	for _, w := range bf.Workloads {
		wls = append(wls, w.Name)
	}
	if strings.Join(wls, ",") != strings.Join([]string{wlSteady, wlDrift}, ",") {
		t.Errorf("BENCHMARK.json workloads %v", wls)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the benchmark is tuned for %d", bf.RunSeconds, defaultSeconds)
	}
	type entry struct {
		unit, better string
		bound        float64
	}
	fromFile := map[string]entry{}
	for _, m := range bf.EndToEnd {
		fromFile[m.Name] = entry{m.Unit, m.Better, m.Bound}
	}
	for _, m := range bf.PerLayer {
		if _, dup := fromFile[m.Name]; dup {
			t.Errorf("%s listed twice", m.Name)
		}
		fromFile[m.Name] = entry{m.Unit, m.Better, -1}
	}
	if len(fromFile) != len(catalog) {
		t.Errorf("BENCHMARK.json has %d metrics, the catalog %d", len(fromFile), len(catalog))
	}
	for _, d := range catalog {
		got, ok := fromFile[d.name]
		if !ok {
			t.Errorf("%s is emitted but not in BENCHMARK.json", d.name)
			continue
		}
		want := entry{d.unit, d.better, d.bound}
		if !d.endToEnd() {
			want.bound = -1
			want.better = got.better // per-layer direction is documentation only
		}
		if got != want {
			t.Errorf("%s: BENCHMARK.json says %+v, catalog %+v", d.name, got, want)
		}
	}
	e2e := 0
	for _, d := range catalog {
		if d.endToEnd() {
			e2e++
		}
	}
	if e2e != len(bf.EndToEnd) {
		t.Errorf("catalog has %d end-to-end metrics, BENCHMARK.json %d", e2e, len(bf.EndToEnd))
	}
}

func TestReadmeDocumentsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range catalog {
		if !bytes.Contains(b, []byte("`"+d.name+"`")) {
			t.Errorf("README.md does not document %s", d.name)
		}
	}
}

func TestOutputReportsOneModeAndEveryName(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rep := newReport(config{workload: wlSteady, trace: traced}, &bytes.Buffer{})
		for _, d := range catalog {
			if d.name != "success_frac" {
				rep.set(d.name, 1)
			}
		}
		rep.ops(10, 0)
		out := rep.output()
		if !out.Correct {
			t.Fatalf("trace=%t: run with every metric and no failure is not correct: %v", traced, rep.problems)
		}
		var names []string
		for n, m := range out.Metrics {
			d, ok := lookupMetric(n)
			if !ok || d.endToEnd() == traced || m.Unit != d.unit {
				t.Errorf("trace=%t: emitted %s (%s)", traced, n, m.Unit)
			}
			names = append(names, n)
		}
		sort.Strings(names)
		want := 0
		for _, d := range catalog {
			if d.endToEnd() != traced {
				want++
			}
		}
		if len(names) != want || !traced && out.Metrics["success_frac"].Value != 1 {
			t.Errorf("trace=%t: emitted %d of %d: %v", traced, len(names), want, names)
		}
	}
}

func TestMissingMetricFailsTheRun(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rep := newReport(config{workload: wlDrift, trace: traced}, &bytes.Buffer{})
		skipped := ""
		for _, d := range catalog {
			if d.name == "success_frac" || d.endToEnd() == traced {
				continue
			}
			if skipped == "" {
				skipped = d.name
				continue
			}
			rep.set(d.name, 1)
		}
		rep.ops(10, 0)
		if out := rep.output(); out.Correct {
			t.Errorf("trace=%t: run without %s is reported correct", traced, skipped)
		}
	}
}

func TestFailedCheckFailsTheRun(t *testing.T) {
	rep := newReport(config{workload: wlSteady}, &bytes.Buffer{})
	rep.ops(99, 0)
	rep.check(false, "restored Service serves identical labels", "differs")
	out := rep.output()
	if out.Correct || out.Failed != 1 || out.Attempted != 100 {
		t.Fatalf("got correct=%t failed=%d attempted=%d", out.Correct, out.Failed, out.Attempted)
	}
}

func TestParseProm(t *testing.T) {
	body := []byte(`# HELP poiserve_http_requests_total Requests.
# TYPE poiserve_http_requests_total counter
poiserve_http_requests_total{endpoint="answers",status="202"} 12
poiserve_http_requests_total{endpoint="answers",status="409"} 1
poiserve_http_request_duration_seconds{endpoint="results",quantile="0.5"} 0.025
poiserve_go_heap_live_bytes 1.048576e+06
`)
	s, err := parseProm(body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := promValue(s, "poiserve_http_request_duration_seconds", "endpoint", "results", "quantile", "0.5"); !ok || v != 0.025 {
		t.Errorf("results p50 = %v, %t", v, ok)
	}
	if v, ok := promValue(s, "poiserve_http_requests_total", "status", "409"); !ok || v != 1 {
		t.Errorf("409 count = %v, %t", v, ok)
	}
	if v, ok := promValue(s, "poiserve_go_heap_live_bytes"); !ok || v != 1<<20 {
		t.Errorf("heap = %v, %t", v, ok)
	}
	if label("/debug/traces?limit=5") != "other" || label("/results") != "results" {
		t.Error("endpoint labels differ from poiserve's")
	}
}
