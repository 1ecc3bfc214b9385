// Command perfbench is the repository's benchmark: it generates NetFlow
// v9 / IPFIX traffic from the seeded isp simulator, drives it over
// loopback into a live Detector.Listen server in this process, checks
// every output against a reference oracle, and prints the metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// drives every layer alone through its public entry point with the
// workload's inputs and prints the per-layer metrics. The last line of
// standard output is the result object; the line before it is a report
// with provenance and the loss ledger. Run it through run.sh, which
// builds it from the checkout's sources. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/experiments"
)

// worldSeed fixes the simulated world (and so the detector's
// dictionary) across runs; --seed varies the traffic.
const worldSeed = 1

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload: isp-udp-saturate, isp-tcp-dense or udp-trickle")
	seed := flag.Uint64("seed", 1, "traffic seed")
	seconds := flag.Float64("seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	out, err := runBenchmark(w, *seed, *seconds, *trace == 1, ".bench_build", -1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep, _ := json.Marshal(out.report)
	res, _ := json.Marshal(out.result)
	fmt.Println(string(rep))
	fmt.Println(string(res))
	if !out.result.Correct {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// output is everything a run prints.
type output struct {
	report map[string]any
	result result
}

// runBenchmark runs one workload; scratch files live under buildDir
// and are removed before it returns. lose withholds one datagram
// (-1: none).
func runBenchmark(w workload, seed uint64, seconds float64, traced bool, buildDir string, lose int) (*output, error) {
	tmp := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	if traced {
		// A traced run measures the end-to-end shape twice, untraced
		// and traced, before it drives the layers: each measurement
		// gets half the time, which keeps the whole run well inside
		// the time an invocation may take.
		seconds /= 2
	}
	lab, err := experiments.NewLab(experiments.DefaultConfig(worldSeed))
	if err != nil {
		return nil, err
	}
	r := &run{w: w, seed: seed, seconds: seconds, lab: lab, dir: dir, buildDir: buildDir,
		nproc: runtime.NumCPU(), ruleIdx: map[string]int32{}, lose: lose}
	for i := range lab.Dict.Rules {
		r.ruleIdx[lab.Dict.Rules[i].Name] = int32(i)
	}
	gcfg := w.gen
	gcfg.budget = seconds
	if r.wire, err = generate(lab, gcfg, seed); err != nil {
		return nil, err
	}
	if !traced {
		// Only the layer drivers need the harness's world after
		// generation; releasing it keeps the untraced run's heap to
		// what the system under test holds plus the wire traffic.
		r.lab = nil
	}
	if err := r.setup(); err != nil {
		return nil, err
	}
	out := &output{result: result{Metrics: map[string]metric{}}}
	if traced {
		err = r.traced(out)
	} else {
		err = r.endToEnd(out)
	}
	if err != nil {
		return nil, err
	}
	out.report["provenance"] = provenance(r)
	return out, nil
}

// measure runs the workload's end-to-end shape once.
func (r *run) measure() (*timing, *ledger, bool, error) {
	tm := &timing{}
	lg := &ledger{}
	r.shortDets, r.shortSubs = 0, 0
	var (
		ok  bool
		err error
	)
	if r.w.closed {
		ok, err = r.runSaturate(tm, lg)
	} else {
		ok, err = r.runOpen(tm, lg)
	}
	return tm, lg, ok, err
}

// endToEnd is the untraced run: every end-to-end metric.
func (r *run) endToEnd(out *output) error {
	tm, lg, ok, err := r.measure()
	if err != nil {
		return err
	}
	// Saturate's passes are independent replicas of one window, so its
	// percentiles are the median over passes. The open loop's windows
	// are consecutive hours of one run: p50 pools their samples, and
	// p99 is the worst hour's, which keeps a slow hour (such as the
	// first, before the server's batch tuner has a rate) in view
	// instead of letting the pooled 1% boundary fall across it.
	var all, p50, p99 []float64
	for _, l := range tm.latencyMs {
		if len(l) == 0 {
			continue
		}
		l = sortedCopy(l)
		p50 = append(p50, quantile(l, 0.50))
		p99 = append(p99, quantile(l, 0.99))
		all = append(all, l...)
	}
	all = sortedCopy(all)
	lat50, lat99 := quantile(all, 0.50), quantile(sortedCopy(p99), 1)
	if r.w.closed {
		lat50, lat99 = median(p50), median(p99)
	}
	m := out.result.Metrics
	m["setup_s"] = metric{median(r.setupS), "s"}
	m["ingest_rec_per_s"] = metric{median(tm.ingestRate), "rec/s"}
	m["detect_latency_p50_ms"] = metric{lat50, "ms"}
	m["detect_latency_p99_ms"] = metric{lat99, "ms"}
	m["window_cut_ms"] = metric{median(tm.cutMs), "ms"}
	m["heap_bytes_per_sub"] = metric{tm.heapPerSub, "B"}
	m["cpu_us_per_krec"] = metric{cpuPerKrec(tm), "us"}
	out.result.Correct = ok
	out.result.Attempted = lg.attempted()
	out.result.Failed = lg.failed()
	out.report = map[string]any{
		"workload":                    r.w.name,
		"losses":                      lg,
		"latency_samples":             len(all),
		"latency_p50_ms_per_window":   p50,
		"latency_p99_ms_per_window":   p99,
		"window_cut_ms":               tm.cutMs,
		"window_drain_ms":             tm.drainMs,
		"ingest_rec_per_s_per_window": tm.ingestRate,
		"windows_cut":                 len(tm.cutMs),
		"ingest_samples":              len(tm.ingestRate),
		"setup_samples_s":             r.setupS,
		"measured_wall_s":             tm.wall.Seconds(),
		"gen_late_ms_p50_p99_max":     lateQuantiles(tm.lateMs),
		"records_measured":            tm.records,
	}
	return nil
}

// cpuPerKrec is process CPU time per 1000 records sent in the
// measured region.
func cpuPerKrec(tm *timing) float64 {
	if tm.records == 0 {
		return 0
	}
	return float64(tm.cpu.Microseconds()) / (float64(tm.records) / 1000)
}

// lateQuantiles summarizes generator lateness: p50, p99 and max.
func lateQuantiles(late []float64) [3]float64 {
	l := sortedCopy(late)
	return [3]float64{quantile(l, 0.5), quantile(l, 0.99), quantile(l, 1)}
}
