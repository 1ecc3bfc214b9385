package main

import "time"

// workload is one traffic mix the benchmark drives through a live
// Detector.Listen server over loopback.
type workload struct {
	name string
	gen  genConfig
	// closed is true for the closed-loop saturate shape: the senders
	// wait on an in-flight bound instead of a schedule, and there is no
	// Subscribe consumer. Open-loop workloads attach one consumer and
	// cut one window per simulated hour.
	closed bool
	// tcp sends both exporters over their own RFC 7011 TCP
	// connection; otherwise each exporter has its own UDP socket.
	tcp bool
	// log gives the server a durable event log (fsync=window).
	log bool
	// export writes every cut window through ExportDir (JSONL).
	export bool
}

const (
	saturate = "isp-udp-saturate"
	dense    = "isp-tcp-dense"
	trickle  = "udp-trickle"
)

var workloads = []workload{
	{
		// Paper-like ingest: 10⁶ lines, ≥90% hitlist misses, closed
		// loop. Socket, lane handoff, decode, hashing and partition do
		// most of the work; events, log, windows and TCP are bypassed.
		name: saturate,
		gen: genConfig{
			lines: 1_000_000, background: 8, hours: 1,
			protos: [2]string{"netflow", "ipfix"},
		},
		closed: true,
	},
	{
		// Engine state, first-fire bursts, event fan-out, log appends,
		// rotate/export and the stream framer; the UDP read loop is
		// bypassed. Runnable, but not gated in BENCHMARK.json: it
		// loses detections by design, and its tail latency and losses
		// swing too far between runs on a 2-vCPU host (see README.md).
		name: dense,
		gen: genConfig{
			lines: 1_000_000, protos: [2]string{"ipfix", "ipfix"},
			rate:  1_000_000,
			gap:   time.Second, // a cut (rotate, export, log marker) takes ~0.4 s
			hours: 10,          // ~370 MB of encoded traffic
		},
		tcp: true, log: true, export: true,
	},
	{
		// Pipeline dispatch at a low rate: latency is set by how long
		// observations wait in producer buffers.
		name: trickle,
		gen: genConfig{
			lines: 100_000, protos: [2]string{"netflow", "ipfix"},
			// Nine hours, 18:00 to 02:00, fill about 47 s of schedule.
			// The cap keeps the set of windows the same for every
			// seed: later hours hold fewer detections and cut faster,
			// so a seed that fitted one more hour in the budget would
			// move the cut median.
			hours: 9,
			rate:  20_000,
			gap:   300 * time.Millisecond, // a cut takes 10-30 ms
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
