package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// runBench runs one invocation in process at a fixed pair count and
// returns its human-readable lines and the parsed result line.
func runBench(t *testing.T, workload string, trace, pairs int) ([]string, resultOut) {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--seed", "5", "--pairs", strconv.Itoa(pairs),
		"--trace", strconv.Itoa(trace), "--scratch", t.TempDir()}
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %d: last line is not the result (exit %d, stderr %q): %v", workload, trace, code, errb.String(), err)
	}
	if code != 0 {
		t.Fatalf("%s trace %d: exit %d\n%s%s", workload, trace, code, out.String(), errb.String())
	}
	return lines[:len(lines)-1], res
}

// tinyPairs is each workload's per-connection pair count: backlog-deep
// gets enough for one compute phase.
func tinyPairs(w workload) int {
	if w.phaseEvery > 0 {
		return w.phaseEvery
	}
	return 4 * w.windowPairs()
}

func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			t.Run(fmt.Sprintf("%s/trace-%d", w.name, trace), func(t *testing.T) {
				lines, res := runBench(t, w.name, trace, tinyPairs(w))
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v failed %d attempted %d", res.Correct, res.Failed, res.Attempted)
				}
				if !containsLine(lines, "failed_frac 0 ") {
					t.Errorf("no failed_frac 0 line in:\n%s", strings.Join(lines, "\n"))
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
					}
					if !containsMetricLine(lines, d.name, d.unit) {
						t.Errorf("metric %s not printed with unit %s", d.name, d.unit)
					}
				}
			})
		}
	}
}

func TestModelCyclesRepeatOnBatchShort(t *testing.T) {
	w, err := workloadByName("batch-short")
	if err != nil {
		t.Fatal(err)
	}
	var got [2]float64
	for i := range got {
		_, res := runBench(t, w.name, 0, 8*w.windowPairs())
		got[i] = res.Metrics["model_cycles_per_pair"].Value
	}
	if got[0] != got[1] || got[0] == 0 {
		t.Fatalf("model_cycles_per_pair %v then %v, want identical and nonzero", got[0], got[1])
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope", "--scratch", t.TempDir()}, &out, &errb); code == 0 {
		t.Fatalf("exit 0 for an unknown workload")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result for an unknown workload: %q", out.String())
	}
}

func containsLine(lines []string, prefix string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return true
		}
	}
	return false
}

func containsMetricLine(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 4 && f[0] == "metric" && f[1] == name && f[3] == unit {
			if _, err := strconv.ParseFloat(f[2], 64); err == nil {
				return true
			}
		}
	}
	return false
}

func TestLatHistQuantiles(t *testing.T) {
	var h latHist
	for v := 1; v <= 100000; v++ {
		h.add(float64(v))
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		want := q * 100000
		if got := h.quantile(q); got < want*(1-1.0/128) || got > want*(1+1.0/128) {
			t.Errorf("quantile(%v) = %v, want %v within 1/128", q, got, want)
		}
	}
	if got, want := h.mean(), 50000.5; got != want {
		t.Errorf("mean %v, want %v", got, want)
	}
	var m latHist
	m.merge(&h)
	m.merge(&h)
	if m.n != 2*h.n || m.quantile(0.5) != h.quantile(0.5) {
		t.Errorf("merge: n %d p50 %v, want n %d p50 %v", m.n, m.quantile(0.5), 2*h.n, h.quantile(0.5))
	}
}
