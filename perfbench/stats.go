package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(sortedCopy(xs), 0.5)
}

// quantile of sorted xs by linear interpolation (0 for none).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}

// sortedCopy returns xs sorted ascending.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// provenance describes the machine, toolchain, source and inputs of a
// run.
func provenance(r *run) map[string]any {
	return map[string]any{
		"nproc":               runtime.NumCPU(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"go_version":          runtime.Version(),
		"commit":              commit(),
		"source_sha256":       sourceHash(),
		"cpu_model":           cpuModel(),
		"network":             "loopback",
		"seed":                r.seed,
		"world_seed":          worldSeed,
		"lines":               r.w.gen.lines,
		"records_per_run":     r.wire.records,
		"datagrams_per_run":   len(r.wire.dgs),
		"hours":               len(r.wire.hours),
		"hitlist_hits":        hits(r.wire),
		"detections_expected": r.wire.expected(),
		"peak_rss_kb":         peakRSS(),
	}
}

// peakRSS is the process's peak resident set (VmHWM), in KiB.
func peakRSS() int {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, _ := strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")))
			return n
		}
	}
	return 0
}

func hits(w *wire) int {
	n := 0
	for i := range w.hours {
		n += w.hours[i].hits
	}
	return n
}

// commit reads the checkout's git HEAD, if it has one.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
			return strings.TrimSpace(string(b))
		}
		return "unknown"
	}
	return ref
}

// sourceHash hashes every Go source and go.mod file of the checkout
// outside the build directory, so runs of identical sources are
// recognizable without git.
func sourceHash() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(path)
			if err == nil {
				h.Write([]byte(path))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
