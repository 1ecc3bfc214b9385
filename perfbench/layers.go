package main

// The traced run. It measures the end-to-end shape twice, untraced and
// traced (spans around the generator's sends, Detector.Stats polling,
// runtime counters), then drives every layer alone through its public
// entry point with exactly the inputs the workload generated, timing
// each call from here. Nothing inside the program changes.

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	haystack "repro"
	"repro/internal/collector"
	"repro/internal/detect"
	"repro/internal/eventlog"
	"repro/internal/flow"
	"repro/internal/ipfix"
	"repro/internal/netflow"
	"repro/internal/pipeline"
)

// chunk is how many observations or lookups one timed call covers
// where a single call is too short to time.
const chunk = 512

// layerFigures accumulates the per-layer metrics.
type layerFigures map[string]metric

func (f layerFigures) set(name string, v float64, unit string) { f[name] = metric{v, unit} }

// rtStats snapshots the Go runtime's GC counters.
type rtStats struct {
	numGC   uint32
	pauseNs uint64
	pauses  [256]uint64
	gcCPU   float64
}

func readRuntime() rtStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	st := rtStats{numGC: ms.NumGC, pauseNs: ms.PauseTotalNs, pauses: ms.PauseNs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		st.gcCPU = s[0].Value.Float64()
	}
	return st
}

// threadCPU is the calling OS thread's CPU time, to the nanosecond
// (CLOCK_THREAD_CPUTIME_ID). The caller holds its goroutine on the
// thread with runtime.LockOSThread. A layer driven alone is costed on
// this clock rather than the wall clock, so time the host takes the
// CPU away does not count as the layer's.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// traced runs the traced measurement and prints every per-layer metric.
func (r *run) traced(out *output) error {
	f := layerFigures{}
	w := r.wire

	// End to end, untraced then traced: the ratio is the tracing
	// overhead, and the traced pass supplies gen, pipeline-polling,
	// events and runtime figures.
	tmU, _, okU, err := r.measure()
	if err != nil {
		return err
	}
	r.tr = newTracer()
	rt0 := readRuntime()
	tmT, lgT, okT, err := r.measure()
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	gcCycles := rt1.numGC - rt0.numGC
	pauseMax := uint64(0)
	for i := uint32(0); i < gcCycles && i < 256; i++ {
		pauseMax = max(pauseMax, rt1.pauses[(rt1.numGC-1-i)%256])
	}
	f.set("runtime.gc_cycles", float64(gcCycles), "count")
	f.set("runtime.gc_pause_ms_total", float64(rt1.pauseNs-rt0.pauseNs)/1e6, "ms")
	f.set("runtime.gc_pause_ms_max", float64(pauseMax)/1e6, "ms")
	f.set("runtime.heap_live_bytes", float64(tmT.heapLive), "B")
	late := sortedCopy(tmT.lateMs)
	f.set("gen.late_ms_p99", quantile(late, 0.99), "ms")
	f.set("gen.late_ms_max", quantile(late, 1), "ms")
	f.set("gen.send_ns", median(tmT.sendNs), "ns")
	f.set("pipeline.batch_size", median(tmT.batchSizes), "count")
	f.set("pipeline.inflight_max", float64(tmT.inflightMax), "count")
	cpuU, cpuT := cpuPerKrec(tmU), cpuPerKrec(tmT)
	f.set("trace.overhead", cpuT/cpuU, "ratio")

	// Every layer alone, fed the workload's own inputs.
	coll, genNs, err := r.driveCollector()
	if err != nil {
		return err
	}
	for k, v := range coll {
		f[k] = v
	}
	dec, err := r.driveDecode(f)
	if err != nil {
		return err
	}
	feedNs, evs, win, err := r.driveFeed(dec)
	if err != nil {
		return err
	}
	f.set("feed.ns_per_rec", feedNs, "ns")
	f.set("window.rotate_ms", median(win.rotateMs), "ms")
	f.set("export.write_ms", median(win.writeMs), "ms")
	f.set("export.bytes_per_detection", win.bytesPerDet, "B")
	pipe, err := r.drivePipeline(tmU)
	if err != nil {
		return err
	}
	for k, v := range pipe {
		f[k] = v
	}
	eng, err := r.driveDetect()
	if err != nil {
		return err
	}
	for k, v := range eng {
		f[k] = v
	}
	lf, err := r.driveEventlog()
	if err != nil {
		return err
	}
	for k, v := range lf {
		f[k] = v
	}
	if !r.w.closed {
		evs = eventFigures{lgT.EventsEmitted, lgT.EventQueueDrops, lgT.SubscriberDrops, lgT.EventsDelivered}
	}
	f.set("events.emitted", float64(evs.emitted), "count")
	f.set("events.dropped", float64(evs.dropped), "count")
	f.set("events.subscriber_drops", float64(evs.subDrops), "count")
	f.set("events.delivered", float64(evs.delivered), "count")
	share := 1.0
	if r.w.log {
		share = float64(lgT.LogAppended) / float64(lgT.DetectionsExpect)
	} else if n := lf["eventlog.appended_share"]; n.Unit != "" {
		share = n.Value
	}
	f.set("eventlog.appended_share", share, "ratio")

	// The ledger: per-record self time of every layer on the record
	// path, against the untraced run's CPU per record. The feed entry
	// is the whole Feed call minus decode, so it holds the producer's
	// ObserveBatch; gen is the sending thread's CPU in the collector
	// drive, the same time that drive takes out of the collector's.
	recs := float64(w.records)
	dets := float64(w.expected())
	hitShare := float64(hits(w)) / recs
	self := map[string]float64{
		"gen":        genNs,
		"collector":  f["collector.cpu_ns_per_rec"].Value,
		"decode":     dec.nsPerRec,
		"feed":       feedNs,
		"detect":     hitShare*f["detect.ns_per_obs_hit"].Value + (1-hitShare)*f["detect.ns_per_obs_miss"].Value,
		"runtime.gc": (rt1.gcCPU - rt0.gcCPU) * 1e9 / float64(tmT.records),
	}
	self["pipeline.apply"] = f["pipeline.apply_ns_per_rec"].Value - self["detect"]
	if r.w.log {
		self["eventlog"] = f["eventlog.append_ns"].Value * dets / recs
	}
	if !r.w.closed {
		// The open loop's measured CPU includes its window cuts.
		cut := f["window.rotate_ms"].Value
		if r.w.export {
			cut += f["export.write_ms"].Value
		}
		self["window"] = cut * 1e6 * float64(len(w.hours)-1) / recs
	}
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	f.set("ledger.coverage", sum/cpuU, "ratio")

	spans, err := r.tr.write(filepath.Join(r.buildDir, "spans"), fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.seed))
	if err != nil {
		return err
	}
	out.result.Metrics = map[string]metric(f)
	out.result.Correct = okU && okT
	out.result.Attempted = lgT.attempted()
	out.result.Failed = lgT.failed()
	out.report = map[string]any{
		"workload":             r.w.name,
		"losses":               lgT,
		"ledger_self_ns":       self,
		"cpu_ns_per_rec":       cpuU,
		"cpu_ns_per_rec_trace": cpuT,
		"spans_file":           spans,
		"spans_kept":           len(r.tr.spans),
	}
	return nil
}

// ---- collector: collector.Listen with counting stub feeds ----

// stubFeed counts what the socket layer hands it and stamps each call.
type stubFeed struct {
	exp   int // exporter, from the message's source/domain ID; -1 until known
	calls []int64
	t0    time.Time
}

func (s *stubFeed) call(msg []byte, idOff int) error {
	if s.exp < 0 && len(msg) >= idOff+4 {
		s.exp = int(msg[idOff+3]) - 1
	}
	s.calls = append(s.calls, int64(time.Since(s.t0)))
	return nil
}

func (s *stubFeed) FeedNetFlow(msg []byte) error { return s.call(msg, 16) }
func (s *stubFeed) FeedIPFIX(msg []byte) error   { return s.call(msg, 12) }
func (s *stubFeed) Stats() collector.FeedStats   { return collector.FeedStats{} }
func (s *stubFeed) Close()                       {}

// driveCollector sends the workload's datagrams (one pass on the
// closed loop, the first hour on its schedule otherwise) into a bare
// collector.Listen whose feeds only count. It also returns the sending
// thread's CPU per record, which the collector figure leaves out, as
// it leaves out the queue-depth poller's.
func (r *run) driveCollector() (layerFigures, float64, error) {
	w := r.wire
	cfg := r.listenConfig("", nil).Config
	var (
		mu    sync.Mutex
		feeds []*stubFeed
	)
	t0 := time.Now()
	srv, err := collector.Listen(cfg, func() collector.Feed {
		f := &stubFeed{exp: -1, t0: t0, calls: make([]int64, 0, len(w.dgs))}
		mu.Lock()
		feeds = append(feeds, f)
		mu.Unlock()
		return f
	})
	if err != nil {
		return nil, 0, err
	}
	defer srv.Close()
	last := w.hours[0].last
	sendT := make([]int64, last)
	// Written by the poller, read once it has exited.
	var (
		depthMax int
		pollCPU  time.Duration
	)
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		th0 := threadCPU()
		defer func() { pollCPU = threadCPU() - th0 }()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				for _, fs := range srv.Stats().Feeds {
					depthMax = max(depthMax, fs.QueueDepth)
				}
			}
		}
	}()
	cpu0 := cpuTime()
	genCPU, err := r.sendPlain(srv, last, t0, sendT)
	close(stop)
	<-polled
	if err != nil {
		return nil, 0, err
	}
	srv.Sync()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	st := srv.Stats()
	var waits []float64
	var perExp [2][]int
	for i := 0; i < last; i++ {
		perExp[w.dgs[i].exp] = append(perExp[w.dgs[i].exp], i)
	}
	mu.Lock()
	for _, fd := range feeds {
		if fd.exp < 0 || fd.exp > 1 {
			continue
		}
		for k, at := range fd.calls {
			if k < len(perExp[fd.exp]) {
				i := perExp[fd.exp][k]
				waits = append(waits, float64(at-sendT[i])/1e3)
				r.tr.span("collector.deliver", -1, int64(i), t0.Add(time.Duration(sendT[i])), time.Duration(at-sendT[i]))
			}
		}
	}
	mu.Unlock()
	waits = sortedCopy(waits)
	recs := 0
	for i := 0; i < last; i++ {
		recs += int(w.dgs[i].nrec)
	}
	f := layerFigures{}
	f.set("collector.datagrams_per_s", float64(processed(st))/wall.Seconds(), "1/s")
	f.set("collector.queue_wait_us_p50", quantile(waits, 0.5), "us")
	f.set("collector.queue_wait_us_p99", quantile(waits, 0.99), "us")
	f.set("collector.queue_depth_max", float64(depthMax), "count")
	f.set("collector.cpu_ns_per_rec", float64((cpu-genCPU-pollCPU).Nanoseconds())/float64(recs), "ns")
	return f, float64(genCPU.Nanoseconds()) / float64(recs), nil
}

// sendPlain sends datagrams [0, last) to a collector server, closed
// loop on the saturate shape and on schedule otherwise, and returns
// the sending thread's CPU time.
func (r *run) sendPlain(srv *collector.Server, last int, t0 time.Time, sendT []int64) (time.Duration, error) {
	w := r.wire
	addr := srv.Addrs()[0]
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	th0 := threadCPU()
	if r.w.tcp {
		var conns [2]net.Conn
		for e := range conns {
			c, err := net.Dial("tcp", addr.String())
			if err != nil {
				return 0, err
			}
			defer c.Close()
			conns[e] = c
		}
		for i := 0; i < last; {
			now := time.Since(t0)
			if due := w.dgs[i].due; due > now {
				time.Sleep(due - now)
				continue
			}
			j := i
			for j < last && w.dgs[j].due <= now {
				sendT[j] = int64(time.Since(t0))
				j++
			}
			if err := r.sendRange(i, j, conns, [2]*net.UDPConn{}); err != nil {
				return 0, err
			}
			i = j
		}
		gen := threadCPU() - th0
		for srv.Stats().StreamMessages < uint64(last) {
			time.Sleep(100 * time.Microsecond)
		}
		return gen, nil
	}
	conns, err := dialUDP(addr)
	if err != nil {
		return 0, err
	}
	defer closeConns(conns[:])
	var sent, proc uint64
	for i := 0; i < last; i++ {
		if r.w.closed {
			for sent-proc >= inflightBound {
				if proc = processed(srv.Stats()); sent-proc >= inflightBound {
					time.Sleep(20 * time.Microsecond)
				}
			}
		} else if due := w.dgs[i].due; due > time.Since(t0) {
			time.Sleep(due - time.Since(t0))
		}
		sendT[i] = int64(time.Since(t0))
		if _, err := conns[w.dgs[i].exp].Write(w.msg(i)); err != nil {
			return 0, err
		}
		sent++
	}
	gen := threadCPU() - th0
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Datagrams < sent && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	return gen, nil
}

// ---- netflow / ipfix: Collector.FeedInto into a reused flow.Batch ----

// decodeFigures are the decode layer's totals.
type decodeFigures struct {
	cpu      [2]time.Duration // by exporter
	recs     [2]int
	nsPerRec float64 // weighted over the workload's own protocols
}

type feedIntoer interface {
	FeedInto(msg []byte, b *flow.Batch) error
}

func newDecoder(proto string) feedIntoer {
	if proto == "netflow" {
		return netflow.NewCollector()
	}
	return ipfix.NewCollector()
}

// driveDecode decodes every datagram of the workload, one exporter's
// stream at a time, costing each stream on the thread's CPU clock. A
// protocol the workload does not send is measured on its records
// re-encoded in that protocol, so both decoders always report.
func (r *run) driveDecode(f layerFigures) (decodeFigures, error) {
	w := r.wire
	batch := flow.NewBatch(recordsPerMessage)
	var d decodeFigures
	byProto := map[string][2]float64{} // ns, records
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for e := range d.cpu {
		dec := newDecoder(w.protos[e])
		th0 := threadCPU()
		for i := range w.dgs {
			if int(w.dgs[i].exp) != e {
				continue
			}
			batch.Reset()
			s := time.Now()
			err := dec.FeedInto(w.msg(i), batch)
			r.tr.span(w.protos[e]+".FeedInto", -1, int64(i), s, time.Since(s))
			if err != nil {
				return d, fmt.Errorf("decode layer: datagram %d: %w", i, err)
			}
			d.recs[e] += batch.Len()
		}
		d.cpu[e] = threadCPU() - th0
		bp := byProto[w.protos[e]]
		byProto[w.protos[e]] = [2]float64{bp[0] + float64(d.cpu[e]), bp[1] + float64(d.recs[e])}
	}
	d.nsPerRec = float64(d.cpu[0]+d.cpu[1]) / float64(d.recs[0]+d.recs[1])
	for _, proto := range []string{"netflow", "ipfix"} {
		if bp, ok := byProto[proto]; ok {
			f.set(proto+".ns_per_rec", bp[0]/bp[1], "ns")
			continue
		}
		ns, err := r.reencodedDecodeNs(proto)
		if err != nil {
			return d, err
		}
		f.set(proto+".ns_per_rec", ns, "ns")
	}
	return d, nil
}

// reencodedDecodeNs decodes the workload's records re-encoded in proto.
func (r *run) reencodedDecodeNs(proto string) (float64, error) {
	w := r.wire
	var src [2]feedIntoer
	for e := range src {
		src[e] = newDecoder(w.protos[e])
	}
	var exps [2]appender
	for e := range exps {
		if proto == "netflow" {
			exps[e] = netflow.NewExporter(uint32(e + 1))
		} else {
			exps[e] = ipfix.NewExporter(uint32(e + 1))
		}
	}
	dec := [2]feedIntoer{newDecoder(proto), newDecoder(proto)}
	in, out := flow.NewBatch(recordsPerMessage), flow.NewBatch(recordsPerMessage)
	var buf []byte
	var ns time.Duration
	recs := 0
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := range w.dgs {
		e := w.dgs[i].exp
		in.Reset()
		if err := src[e].FeedInto(w.msg(i), in); err != nil {
			return 0, fmt.Errorf("decode layer: datagram %d: %w", i, err)
		}
		var err error
		if buf, _, err = exps[e].AppendMessage(buf[:0], in.Records(), recordsPerMessage); err != nil {
			return 0, fmt.Errorf("decode layer: re-encode datagram %d: %w", i, err)
		}
		out.Reset()
		s, th0 := time.Now(), threadCPU()
		err = dec[e].FeedInto(buf, out)
		ns += threadCPU() - th0
		r.tr.span(proto+".FeedInto", -1, int64(i), s, time.Since(s))
		if err != nil {
			return 0, fmt.Errorf("decode layer: re-encoded datagram %d: %w", i, err)
		}
		recs += out.Len()
	}
	return float64(ns) / float64(recs), nil
}

// ---- feed, window, export: Feed.Feed*Batch, Detector.Rotate, ExportDir.Export ----

type eventFigures struct{ emitted, dropped, subDrops, delivered uint64 }

type windowFigures struct {
	rotateMs, writeMs []float64
	bytesPerDet       float64
}

// driveFeed feeds every datagram through a detector's Feed handles
// (one per exporter) with one Subscribe consumer attached, cutting a
// window with Detector.Rotate after each hour and exporting it. The
// feed figure is the feeding thread's CPU time minus the decode time
// of the same datagrams; both loops record the same spans.
func (r *run) driveFeed(dec decodeFigures) (float64, eventFigures, windowFigures, error) {
	w := r.wire
	det := r.sys.NewShardedDetector(threshold, r.nproc)
	defer det.Close()
	ch, cancel := det.Subscribe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ch {
		}
	}()
	defer func() { cancel(); <-done }()
	exp, err := haystack.NewExportDir(filepath.Join(r.dir, "layer-export"), "jsonl")
	if err != nil {
		return 0, eventFigures{}, windowFigures{}, err
	}
	feeds := [2]*haystack.Feed{det.NewFeed(), det.NewFeed()}
	arena := flow.NewBatch(recordsPerMessage)
	var (
		cpu       time.Duration
		win       windowFigures
		bytes     int64
		detsTotal int
	)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for hi := range w.hours {
		hr := &w.hours[hi]
		th0 := threadCPU()
		for i := hr.first; i < hr.last; i++ {
			e := w.dgs[i].exp
			arena.Reset()
			s := time.Now()
			var err error
			if w.protos[e] == "netflow" {
				err = feeds[e].FeedNetFlowBatch(w.msg(i), arena)
			} else {
				err = feeds[e].FeedIPFIXBatch(w.msg(i), arena)
			}
			r.tr.span("feed.FeedBatch", -1, int64(i), s, time.Since(s))
			if err != nil {
				return 0, eventFigures{}, windowFigures{}, fmt.Errorf("feed layer: datagram %d: %w", i, err)
			}
		}
		cpu += threadCPU() - th0
		s := time.Now()
		res := det.Rotate()
		win.rotateMs = append(win.rotateMs, time.Since(s).Seconds()*1e3)
		rot := r.tr.span("window.Rotate", -1, int64(hr.last), s, time.Since(s))
		s = time.Now()
		path, err := exp.Export(&res)
		if err != nil {
			return 0, eventFigures{}, windowFigures{}, err
		}
		win.writeMs = append(win.writeMs, time.Since(s).Seconds()*1e3)
		r.tr.span("export.Export", rot, int64(hr.last), s, time.Since(s))
		if st, err := os.Stat(path); err == nil {
			bytes += st.Size()
		}
		detsTotal += len(res.Detections)
	}
	for _, fd := range feeds {
		fd.Close()
	}
	st := det.Stats()
	if detsTotal > 0 {
		win.bytesPerDet = float64(bytes) / float64(detsTotal)
	}
	recs := dec.recs[0] + dec.recs[1]
	feedNs := float64(cpu-dec.cpu[0]-dec.cpu[1]) / float64(recs)
	return feedNs, eventFigures{st.EventsEmitted, st.EventsDropped, st.SubscriberDrops, st.EventsDelivered}, win, nil
}

// ---- pipeline: Producer.ObserveBatch, shard apply, fire hook ----

// observations decodes datagram i into obs form with the detector's
// subscriber key.
func observations(dec feedIntoer, msg []byte, batch *flow.Batch, obs []pipeline.Obs) ([]pipeline.Obs, error) {
	batch.Reset()
	if err := dec.FeedInto(msg, batch); err != nil {
		return obs, err
	}
	obs = obs[:0]
	for _, rec := range batch.Records() {
		obs = append(obs, pipeline.Obs{
			Sub: detect.SubID(subscriberKey(rec.Key.Src.As4())), Hour: rec.Hour,
			IP: rec.Key.Dst, Port: rec.Key.DstPort, Pkts: rec.Packets,
		})
	}
	return obs, nil
}

// drivePipeline feeds the workload's observations to a standalone
// sharded pipeline from one producer goroutine locked to its thread.
// The closed loop runs unpaced at the batch size the server's tuner
// picks for the measured ingest rate; the open loop replays the first
// hour on its schedule, with the default batch size for the first
// second and the tuner's choice after it, as a server would. Apply
// time is the process CPU not spent on the producer's thread.
func (r *run) drivePipeline(tmU *timing) (layerFigures, error) {
	w := r.wire
	p := pipeline.New(r.lab.Dict, threshold, r.nproc)
	defer p.Close()
	last := len(w.dgs)
	rate := median(tmU.ingestRate)
	if r.w.closed {
		p.SetBatchSize(pipeline.AdaptiveBatchSize(rate))
	} else {
		last = w.hours[0].last
	}
	obsAt := make([]int64, last)
	var (
		lagMu sync.Mutex
		lags  []float64
		t0    = time.Now()
	)
	p.SetFireHook(func(ev pipeline.FireEvent) {
		at := int64(time.Since(t0))
		hr := &w.hours[ev.Window]
		if d, ok := hr.lookupDet(uint64(ev.Sub), int32(ev.Rule)); ok && int(d.dg) < last {
			// The span runs from the trigger's ObserveBatch to the
			// hook and shares that call's trace id.
			r.tr.span("pipeline.fire", -1, int64(d.dg), t0.Add(time.Duration(obsAt[d.dg])), time.Duration(at-obsAt[d.dg]))
			lagMu.Lock()
			lags = append(lags, float64(at-obsAt[d.dg])/1e6)
			lagMu.Unlock()
		}
	})
	var dec [2]feedIntoer
	for e := range dec {
		dec[e] = newDecoder(w.protos[e])
	}
	batch := flow.NewBatch(recordsPerMessage)
	var obs []pipeline.Obs
	var (
		observe   time.Duration
		recs      int
		prodCPU   time.Duration
		tunedOnce bool
	)
	runtime.LockOSThread()
	cpu0, th0 := cpuTime(), threadCPU()
	prod := p.NewProducer()
	for i := 0; i < last; i++ {
		if !r.w.closed {
			if due := w.dgs[i].due; due > time.Since(t0) {
				time.Sleep(due - time.Since(t0))
			}
			if !tunedOnce && time.Since(t0) >= time.Second {
				p.SetBatchSize(pipeline.AdaptiveBatchSize(r.w.gen.rate))
				tunedOnce = true
			}
		}
		e := w.dgs[i].exp
		var err error
		if obs, err = observations(dec[e], w.msg(i), batch, obs); err != nil {
			prod.Close()
			runtime.UnlockOSThread()
			return nil, fmt.Errorf("pipeline layer: datagram %d: %w", i, err)
		}
		s := time.Now()
		obsAt[i] = int64(s.Sub(t0))
		prod.ObserveBatch(obs)
		el := time.Since(s)
		r.tr.span("pipeline.ObserveBatch", -1, int64(i), s, el)
		observe += el
		recs += len(obs)
	}
	prod.Close()
	p.Sync()
	prodCPU = threadCPU() - th0
	cpu := cpuTime() - cpu0
	runtime.UnlockOSThread()
	lagMu.Lock()
	l := sortedCopy(lags)
	lagMu.Unlock()
	f := layerFigures{}
	f.set("pipeline.observe_ns_per_rec", float64(observe)/float64(recs), "ns")
	f.set("pipeline.apply_ns_per_rec", float64(cpu-prodCPU)/float64(recs), "ns")
	f.set("pipeline.fire_lag_ms_p99", quantile(l, 0.99), "ms")
	return f, nil
}

// ---- detect / rules: Engine.ObserveBatch, Dictionary.Lookup ----

// driveDetect feeds a standalone engine the workload's observations,
// hits and misses in separate chunks costed on the thread's CPU clock
// (misses hold no state, so the split keeps every subscriber's order),
// one engine window per hour, and costs Dictionary.Lookup over the
// same observations.
func (r *run) driveDetect() (layerFigures, error) {
	w := r.wire
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	eng := detect.New(r.lab.Dict, threshold)
	var dec [2]feedIntoer
	for e := range dec {
		dec[e] = newDecoder(w.protos[e])
	}
	batch := flow.NewBatch(recordsPerMessage)
	var (
		obs             []pipeline.Obs
		hitBuf, missBuf []detect.Obs
		hitNs, missNs   time.Duration
		nHit, nMiss     int
		lookNs          time.Duration
		nLook           int
		subs            []float64
		lookBuf         []detect.Obs
	)
	flushObs := func(buf []detect.Obs, ns *time.Duration, n *int, name string, trace int) []detect.Obs {
		if len(buf) == 0 {
			return buf
		}
		s, th0 := time.Now(), threadCPU()
		eng.ObserveBatch(buf)
		*ns += threadCPU() - th0
		r.tr.span(name, -1, int64(trace), s, time.Since(s))
		*n += len(buf)
		return buf[:0]
	}
	flushLook := func(trace int) {
		s, th0 := time.Now(), threadCPU()
		for k := range lookBuf {
			o := &lookBuf[k]
			r.lab.Dict.Lookup(o.Hour.Day(), o.IP, o.Port)
		}
		lookNs += threadCPU() - th0
		r.tr.span("rules.Lookup", -1, int64(trace), s, time.Since(s))
		nLook += len(lookBuf)
		lookBuf = lookBuf[:0]
	}
	for hi := range w.hours {
		hr := &w.hours[hi]
		for i := hr.first; i < hr.last; i++ {
			var err error
			if obs, err = observations(dec[w.dgs[i].exp], w.msg(i), batch, obs); err != nil {
				return nil, fmt.Errorf("detect layer: datagram %d: %w", i, err)
			}
			for _, o := range obs {
				lookBuf = append(lookBuf, o)
				if len(r.lab.Dict.Lookup(o.Hour.Day(), o.IP, o.Port)) > 0 {
					hitBuf = append(hitBuf, o)
				} else {
					missBuf = append(missBuf, o)
				}
			}
			if len(hitBuf) >= chunk {
				hitBuf = flushObs(hitBuf, &hitNs, &nHit, "detect.ObserveBatch.hit", i)
			}
			if len(missBuf) >= chunk {
				missBuf = flushObs(missBuf, &missNs, &nMiss, "detect.ObserveBatch.miss", i)
			}
			if len(lookBuf) >= chunk {
				flushLook(i)
			}
		}
		hitBuf = flushObs(hitBuf, &hitNs, &nHit, "detect.ObserveBatch.hit", hr.last)
		missBuf = flushObs(missBuf, &missNs, &nMiss, "detect.ObserveBatch.miss", hr.last)
		subs = append(subs, float64(eng.Subscribers()))
		eng.Reset()
	}
	if len(lookBuf) > 0 {
		flushLook(len(w.dgs))
	}
	f := layerFigures{}
	f.set("detect.ns_per_obs_hit", float64(hitNs)/float64(max(nHit, 1)), "ns")
	f.set("detect.ns_per_obs_miss", float64(missNs)/float64(max(nMiss, 1)), "ns")
	f.set("rules.lookup_ns", float64(lookNs)/float64(max(nLook, 1)), "ns")
	f.set("detect.subscribers", median(subs), "count")
	return f, nil
}

// ---- eventlog: Log.Append, Log.Sync, Detector.ReplayLog ----

// driveEventlog appends the reference detections of every hour to a
// fresh log in firing order, with a timed Sync after each hour and a
// window marker after each but the last (left open, as a crash would),
// then replays the log into a fresh detector.
func (r *run) driveEventlog() (layerFigures, error) {
	w := r.wire
	dir := filepath.Join(r.dir, "layer-log")
	l, err := eventlog.Open(eventlog.Options{Dir: dir, Fsync: eventlog.FsyncWindow})
	if err != nil {
		return nil, err
	}
	var (
		appendNs     time.Duration
		appends, bad int
		syncMs       []float64
	)
	for hi := range w.hours {
		hr := &w.hours[hi]
		order := append([]refDet(nil), hr.dets...)
		sort.Slice(order, func(i, j int) bool { return order[i].dg < order[j].dg })
		first := hr.hour.Time()
		for _, d := range order {
			rule := &r.lab.Dict.Rules[d.rule]
			rec := eventlog.Record{Type: eventlog.TypeEvent, Event: eventlog.Event{
				Subscriber: d.sub, Rule: rule.Name, Level: rule.Level.String(), First: first, Window: uint64(hi),
			}}
			s := time.Now()
			_, err := l.Append(&rec)
			el := time.Since(s)
			r.tr.span("eventlog.Append", -1, int64(d.dg), s, el)
			appendNs += el
			appends++
			if err != nil {
				bad++
			}
		}
		// The window's events are flushed by Sync here; the marker's own
		// fsync (the window policy) then has only the marker to write.
		s := time.Now()
		if err := l.Sync(); err != nil {
			l.Close()
			return nil, err
		}
		syncMs = append(syncMs, time.Since(s).Seconds()*1e3)
		r.tr.span("eventlog.Sync", -1, int64(hr.last), s, time.Since(s))
		if hi == len(w.hours)-1 {
			break
		}
		marker := eventlog.Record{Type: eventlog.TypeWindow, Window: eventlog.WindowMarker{Seq: uint64(hi), Start: first, End: first.Add(time.Hour)}}
		if _, err := l.Append(&marker); err != nil {
			bad++
		}
	}
	if err := l.Close(); err != nil {
		return nil, err
	}

	l, err = eventlog.Open(eventlog.Options{Dir: dir, Fsync: eventlog.FsyncWindow})
	if err != nil {
		return nil, err
	}
	defer l.Close()
	det := r.sys.NewShardedDetector(threshold, r.nproc)
	defer det.Close()
	s := time.Now()
	st, err := det.ReplayLog(l)
	replay := time.Since(s)
	if err != nil {
		return nil, err
	}
	r.tr.span("eventlog.Replay", -1, -1, s, replay)
	if want := len(w.hours[len(w.hours)-1].dets); st.Restored != want {
		return nil, fmt.Errorf("eventlog layer: replay restored %d detections, want %d", st.Restored, want)
	}
	f := layerFigures{}
	f.set("eventlog.append_ns", float64(appendNs)/float64(max(appends, 1)), "ns")
	f.set("eventlog.sync_ms", median(syncMs), "ms")
	f.set("eventlog.appended_share", float64(appends-bad)/float64(max(appends, 1)), "ratio")
	f.set("eventlog.replay_s", replay.Seconds(), "s")
	f.set("eventlog.replay_rec_per_s", float64(st.Records)/replay.Seconds(), "rec/s")
	return f, nil
}
