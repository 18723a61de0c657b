package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric tables")

// tinyScale runs every phase of every workload in about a second.
var tinyScale = scale{
	PokecScale: 3200, PokecGraphs: 1, FlatN: 600, FlatMaxDeg: 20, FlatGraphs: 2, ServeN: 300, ServeBases: 2,
	MinIters: 1, MinCold: 10 * minBeyond, MinOther: 2 * minBeyond, SetupRepeat: 1,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestTinyRun runs each workload untraced and traced at tiny scale and
// checks the output contract: the gate passes, and every named metric is
// printed exactly once, with its unit.
func TestTinyRun(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			cfg := config{wl: workloads[name], sc: tinyScale, seed: 1, seconds: 1, traced: traced}
			res, err := run(context.Background(), cfg, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: gate failed: %+v\n%s", name, traced, res, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			printed := map[string]int{}
			for _, line := range strings.Split(out.String(), "\n") {
				f := strings.Fields(line)
				if len(f) >= 4 && f[0] == "metric" {
					printed[f[1]]++
				}
			}
			for _, m := range want {
				if printed[m.Name] != 1 {
					t.Errorf("%s traced=%v: %s printed %d times", name, traced, m.Name, printed[m.Name])
				}
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Unit == "" {
					t.Errorf("%s traced=%v: %s missing or without its unit: %+v", name, traced, m.Name, got)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the result, want %d", name, traced, len(res.Metrics), len(want))
			}
			if !traced {
				for _, m := range endToEnd {
					if res.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
					}
				}
			}
		}
	}
}

// TestMetricTables checks names, units and limits, and that every
// per-layer metric names the end-to-end metric and workload it should move.
func TestMetricTables(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(endToEnd), len(perLayer))
	}
	e2e := map[string]bool{}
	seen := map[string]bool{}
	for _, m := range append(append([]Metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	wls := map[string]bool{}
	for _, w := range workloadNames {
		wls[w] = true
	}
	for _, m := range perLayer {
		if m.Moves == "none" && m.On == "none" {
			continue
		}
		if !e2e[m.Moves] {
			t.Errorf("%s: moves unknown end-to-end metric %q", m.Name, m.Moves)
		}
		for _, w := range strings.Split(m.On, ",") {
			if !wls[w] {
				t.Errorf("%s: moves %s on unknown workload %q", m.Name, m.Moves, w)
			}
		}
	}
}

type benchFile struct {
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

// benchmarkJSON renders BENCHMARK.json from the tables in this package.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "perfbench/run.sh"}, Paths: []string{"perfbench"}, RunSeconds: runSeconds}
	for _, n := range workloadNames {
		doc.Workloads = append(doc.Workloads, wl{n, workloads[n].why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}

// TestBenchmarkJSON checks that BENCHMARK.json is exactly what the metric
// tables say: its workloads with why each was chosen, and its metrics with
// units, directions and bounds. Run with -update to rewrite it.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is out of date with the metric tables; run go test -run TestBenchmarkJSON -update")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(got, &keys); err != nil {
		t.Fatal(err)
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != "command,end_to_end,paths,per_layer,run_seconds,workloads" {
		t.Errorf("BENCHMARK.json keys %v", names)
	}
	var bf benchFile
	if err := json.Unmarshal(got, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.Workloads) < 2 || len(bf.Workloads) > 8 || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("%d workloads, run_seconds %d", len(bf.Workloads), bf.RunSeconds)
	}
}

// TestPercentile checks exact nearest-rank percentiles and the rule that a
// named percentile needs minBeyond samples beyond it.
func TestPercentile(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	if v, beyond, err := s.percentile(0.9); err != nil || v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v (beyond %d, err %v), want 90 with 10 beyond", v, beyond, err)
	}
	if v, _, err := s.percentile(0.5); err != nil || v != 50 {
		t.Errorf("p50 of 1..100 = %v (%v), want 50", v, err)
	}
	if _, _, err := s[:99].percentile(0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if m := (samples{3, 1, 2, 4}).median(); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
