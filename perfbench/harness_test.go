package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// spec is the part of ../BENCHMARK.json the self-test checks against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny shrinks a workload to 10³ lines and a short schedule, so each
// runs end to end in seconds.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.gen.lines = 1000
	if w.gen.rate > 0 {
		w.gen.gap = 200 * time.Millisecond
	}
	return w
}

// checkMetrics requires exactly the named metrics, with their units;
// end-to-end metrics must also be positive.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }, positive bool) {
	t.Helper()
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok || v.Unit != m.Unit || (positive && v.Value <= 0) {
			t.Errorf("metric %s: got %+v, want unit %s", m.Name, v, m.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
}

// TestHarnessOracle runs every workload at tiny scale: the oracle must
// pass, a lossless run must count no failure, and every end-to-end
// metric must be printed.
func TestHarnessOracle(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := runBenchmark(tiny(t, w.name), 7, 1, false, t.TempDir(), -1)
			if err != nil {
				t.Fatal(err)
			}
			res := out.result
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d; report %v", res.Correct, res.Attempted, res.Failed, out.report)
			}
			checkMetrics(t, res.Metrics, s.EndToEnd, true)
		})
	}
}

// TestHarnessCountsLostDatagram withholds one datagram: the run must
// still pass the oracle and count the loss as failed operations.
func TestHarnessCountsLostDatagram(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := runBenchmark(tiny(t, w.name), 7, 1, false, t.TempDir(), 3)
			if err != nil {
				t.Fatal(err)
			}
			if res := out.result; !res.Correct || res.Failed == 0 {
				t.Fatalf("correct=%v failed=%d after a lost datagram; report %v", res.Correct, res.Failed, out.report)
			}
		})
	}
}

// TestHarnessTraced runs every workload's traced run at tiny scale: it
// must pass the oracle and print every per-layer metric.
func TestHarnessTraced(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := runBenchmark(tiny(t, w.name), 7, 1, true, t.TempDir(), -1)
			if err != nil {
				t.Fatal(err)
			}
			if !out.result.Correct {
				t.Fatalf("traced run failed the oracle; report %v", out.report)
			}
			checkMetrics(t, out.result.Metrics, s.PerLayer, false)
		})
	}
}
