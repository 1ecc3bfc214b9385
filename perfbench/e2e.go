package main

// The end-to-end run: set up a real Detector.Listen server, drive the
// generated datagrams at it over loopback from this process, and
// check every output against the oracle. Timed regions cover only
// sending, draining and cutting; generation, checks and forced GCs
// sit outside them.

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	haystack "repro"
	"repro/internal/collector"
	"repro/internal/eventlog"
	"repro/internal/experiments"
)

// setupRuns is how many times a run sets the system up; setup_s is
// their median.
const setupRuns = 7

// inflightBound caps the closed loop's datagrams sent but not yet
// processed by a lane. It stays below the lane queue (256) and the
// socket's receive buffer, so a lossless server never has to drop.
const inflightBound = 128

// readBuffer is the SO_RCVBUF each UDP listener requests.
const readBuffer = 4 << 20

// run is one benchmark invocation's shared state.
type run struct {
	w        workload
	seed     uint64
	seconds  float64
	lab      *experiments.Lab // the harness's own world, for generation and the oracle
	wire     *wire
	dir      string // scratch directory, removed when the run ends
	buildDir string // where span dumps are kept
	nproc    int
	ruleIdx  map[string]int32

	sys    *haystack.System
	setupS []float64

	// shortDets and shortSubs total the reference detections and
	// subscribers the checked windows lacked (see checkWindow).
	shortDets, shortSubs int

	tr *tracer // nil when untraced

	// lose is the index of one datagram the generator withholds, as a
	// network would lose it (-1: none); the self-test uses it to check
	// that the loss is counted.
	lose int
}

// timing collects one end-to-end pass's measurements.
type timing struct {
	ingestRate []float64   // records/s per window (or pass)
	latencyMs  [][]float64 // per window (or pass): per delivered detection
	cutMs      []float64   // per cut window
	drainMs    []float64   // per cut window: the drain-to-processed part
	heapPerSub float64
	cpu        time.Duration
	records    uint64 // records sent in the measured region
	wall       time.Duration
	lateMs     []float64 // generator lateness per send (open loop) or bound wait (closed)
	sendNs     []float64 // per datagram send call

	// Traced runs only.
	heapLive    uint64    // live heap at the heap measurement point
	batchSizes  []float64 // polled pipeline dispatch thresholds
	inflightMax int       // highest polled in-flight batch count
}

// pollDetector samples Detector.Stats every 5ms into tm until the
// returned stop function is called; untraced runs do not poll.
func (r *run) pollDetector(det *haystack.Detector, tm *timing) (stop func()) {
	if r.tr == nil {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				st := det.Stats()
				tm.batchSizes = append(tm.batchSizes, float64(st.BatchSize))
				tm.inflightMax = max(tm.inflightMax, st.InflightBatches)
			}
		}
	}()
	return func() { close(quit); <-done }
}

// ledger counts every loss channel of a run.
type ledger struct {
	RecordsSent       uint64 `json:"records_sent"`
	RecordsDelivered  uint64 `json:"records_delivered"`
	DetectionsExpect  uint64 `json:"detections_expected"`
	KernelDatagrams   uint64 `json:"kernel_datagrams"`
	LaneQueueDrops    uint64 `json:"lane_queue_drops"`
	DecodeErrors      uint64 `json:"decode_errors"`
	TemplateDrops     uint64 `json:"template_drops"`
	SequenceGaps      uint64 `json:"sequence_gaps"`
	SkippedRecords    uint64 `json:"skipped_records"`
	FramingErrors     uint64 `json:"framing_errors"`
	EventsEmitted     uint64 `json:"events_emitted"`
	EventsDelivered   uint64 `json:"events_delivered"`
	LogAppended       uint64 `json:"log_appended"`
	EventQueueDrops   uint64 `json:"event_queue_drops"`
	SubscriberDrops   uint64 `json:"subscriber_drops"`
	LogAppendErrors   uint64 `json:"log_append_errors"`
	MissingFromStream uint64 `json:"missing_from_stream"`
	MissingFromLog    uint64 `json:"missing_from_log"`
	MissingEither     uint64 `json:"missing_from_stream_or_log"`
}

// attempted is the run's operation count: records sent plus
// detections expected.
func (l *ledger) attempted() uint64 { return l.RecordsSent + l.DetectionsExpect }

// failed counts failed operations: records not delivered, detections
// missing from the stream or the log, and the message-level channels
// that lose or corrupt whole datagrams.
func (l *ledger) failed() uint64 {
	lost := uint64(0)
	if l.RecordsSent > l.RecordsDelivered {
		lost = l.RecordsSent - l.RecordsDelivered
	}
	return lost + l.SkippedRecords + l.MissingEither + l.SequenceGaps + l.DecodeErrors + l.FramingErrors + l.LogAppendErrors
}

// addServer folds a server's transport counters into the ledger.
func (l *ledger) addServer(st collector.Stats, ds haystack.DetectorStats, sentDatagrams uint64, udp bool) {
	if udp && sentDatagrams > st.Datagrams {
		l.KernelDatagrams += sentDatagrams - st.Datagrams
	}
	l.LaneQueueDrops += st.DroppedDatagrams
	l.DecodeErrors += st.DecodeErrors
	for _, f := range st.Feeds {
		l.TemplateDrops += f.TemplateDrops
		l.SequenceGaps += f.SequenceGaps
	}
	l.FramingErrors += st.FramingErrors
	l.RecordsDelivered += ds.RecordsIPv4 + ds.RecordsIPv6
	l.SkippedRecords += ds.SkippedRecords
	l.EventsEmitted += ds.EventsEmitted
	l.EventsDelivered += ds.EventsDelivered
	l.EventQueueDrops += ds.EventsDropped
	l.SubscriberDrops += ds.SubscriberDrops
}

// listenConfig is the server configuration of the workload: shards,
// MaxFeeds and MinFeeds at nproc (so each exporter gets its own lane),
// the collector's defaults otherwise.
func (r *run) listenConfig(logDir string, onRotate func(haystack.WindowResult)) haystack.ListenConfig {
	l := collector.Listener{Addr: "127.0.0.1:0"}
	if r.w.tcp {
		l.Net, l.Proto = "tcp", collector.ProtoIPFIX
	}
	cfg := haystack.ListenConfig{Config: collector.Config{
		Listeners: []collector.Listener{l},
		MaxFeeds:  r.nproc,
		MinFeeds:  r.nproc,
	}}
	if !r.w.tcp {
		cfg.ReadBuffer = readBuffer
	}
	cfg.Window.OnRotate = onRotate
	if logDir != "" {
		cfg.Log = haystack.EventLogConfig{Dir: logDir, Fsync: "window"}
	}
	return cfg
}

// setup measures setup_s: haystack.New (world build plus dictionary
// compile), NewShardedDetector and Listen returning bound sockets,
// setupRuns times. The last system is kept; its detector and server
// are torn down, since every pass builds its own.
func (r *run) setup() error {
	for i := 0; i < setupRuns; i++ {
		logDir := ""
		if r.w.log {
			logDir = filepath.Join(r.dir, fmt.Sprintf("setup-log-%d", i))
		}
		runtime.GC() // the previous system's garbage is not this setup's cost
		t0 := time.Now()
		sys, err := haystack.New(haystack.DefaultConfig(worldSeed))
		if err != nil {
			return err
		}
		det := sys.NewShardedDetector(threshold, r.nproc)
		srv, err := det.Listen(r.listenConfig(logDir, nil))
		if err != nil {
			det.Close()
			return err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		srv.Kill()
		det.Close()
		r.sys = sys
	}
	return nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a GC and returns the live heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// dialUDP opens one generator socket per exporter.
func dialUDP(addr net.Addr) ([2]*net.UDPConn, error) {
	var conns [2]*net.UDPConn
	for e := range conns {
		c, err := net.DialUDP("udp", nil, addr.(*net.UDPAddr))
		if err != nil {
			closeConns(conns[:])
			return conns, err
		}
		conns[e] = c
	}
	return conns, nil
}

func closeConns[C interface{ Close() error }](cs []C) {
	for _, c := range cs {
		if any(c) != nil {
			c.Close()
		}
	}
}

// processed sums the datagrams every lane has handled.
func processed(st collector.Stats) uint64 {
	var n uint64
	for _, f := range st.Feeds {
		n += f.Datagrams
	}
	return n
}

// ---- closed loop: isp-udp-saturate ----

// runSaturate drives passes of the hour's datagrams until the time
// budget is spent. Pass 0 warms up and measures the heap; the others
// are timed.
func (r *run) runSaturate(tm *timing, lg *ledger) (bool, error) {
	w := r.wire
	hr := &w.hours[0]
	var idx [2][]int32
	for i := range w.dgs {
		e := w.dgs[i].exp
		idx[e] = append(idx[e], int32(i))
	}
	sendT := make([]int64, len(w.dgs))
	correct := true
	start := time.Now()
	for pass := 0; ; pass++ {
		if pass >= 3 && time.Since(start).Seconds() >= r.seconds {
			break
		}
		warm := pass == 0
		det := r.sys.NewShardedDetector(threshold, r.nproc)
		srv, err := det.Listen(r.listenConfig("", nil))
		if err != nil {
			det.Close()
			return false, err
		}
		conns, err := dialUDP(srv.Addrs()[0])
		if err != nil {
			srv.Close()
			det.Close()
			return false, err
		}
		// Every pass starts from a collected heap, so the previous
		// pass's detector is not garbage-collected on this one's time.
		heap0 := liveHeap()
		stopPoll := r.pollDetector(det, tm)
		cpu0 := cpuTime()
		t0 := time.Now()
		var (
			sent atomic.Uint64
			proc atomic.Uint64
			wg   sync.WaitGroup
			errs [2]error
			wait [2][]float64
			send [2][]float64
		)
		for e := 0; e < 2; e++ {
			wg.Add(1)
			go func(e int) {
				defer wg.Done()
				for _, i := range idx[e] {
					var waited time.Duration
					for sent.Load()-proc.Load() >= inflightBound {
						ws := time.Now()
						proc.Store(processed(srv.Stats()))
						if sent.Load()-proc.Load() >= inflightBound {
							time.Sleep(20 * time.Microsecond)
						}
						waited += time.Since(ws)
					}
					s := time.Now()
					sendT[i] = int64(s.Sub(t0))
					if int(i) != r.lose {
						if _, err := conns[e].Write(w.msg(int(i))); err != nil {
							errs[e] = err
							return
						}
					}
					sent.Add(1)
					if r.tr != nil {
						d := time.Since(s)
						r.tr.span("gen.send", -1, int64(i), s, d)
						send[e] = append(send[e], float64(d.Nanoseconds()))
						wait[e] = append(wait[e], waited.Seconds()*1e3)
					}
				}
			}(e)
		}
		wg.Wait()
		tLast := time.Now()
		for _, err := range errs {
			if err != nil {
				closeConns(conns[:])
				srv.Close()
				det.Close()
				return false, err
			}
		}
		// Every datagram the kernel delivered is read within a bounded
		// time; wait for the receive count, then for the lanes.
		waitReceived(srv, uint64(len(w.dgs)), false)
		srv.Sync()
		tIngest := time.Now()
		cpu1 := cpuTime()
		stopPoll()
		var heapGrowth uint64
		if warm {
			h := liveHeap()
			tm.heapLive = h
			if h > heap0 {
				heapGrowth = h - heap0
			}
		}
		tRot := time.Now()
		res := srv.RotateNow()
		tCut := time.Now()
		lg.addServer(srv.Stats(), det.Stats(), uint64(len(w.dgs)), true)
		lg.RecordsSent += uint64(w.records)
		lg.DetectionsExpect += uint64(len(hr.dets))
		closeConns(conns[:])
		srv.Close()
		det.Close()

		if err := r.checkWindow(&res, hr); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: %v\n", pass, err)
			correct = false
		}
		if warm {
			if res.Subscribers > 0 {
				tm.heapPerSub = float64(heapGrowth) / float64(res.Subscribers)
			}
			continue
		}
		ingest := tIngest.Sub(t0)
		tm.ingestRate = append(tm.ingestRate, float64(w.records)/ingest.Seconds())
		tm.cutMs = append(tm.cutMs, (tIngest.Sub(tLast)+tCut.Sub(tRot)).Seconds()*1e3)
		tm.drainMs = append(tm.drainMs, tIngest.Sub(tLast).Seconds()*1e3)
		tm.cpu += cpu1 - cpu0
		tm.records += uint64(w.records)
		tm.wall += ingest
		// Without a subscriber, a detection reaches its reader at the
		// window cut: latency runs from the send of the datagram that
		// fired it to the end of the cut.
		cut := int64(tCut.Sub(t0))
		lat := make([]float64, 0, len(hr.dets))
		for _, d := range hr.dets {
			lat = append(lat, float64(cut-sendT[d.dg])/1e6)
		}
		tm.latencyMs = append(tm.latencyMs, lat)
		for e := range wait {
			tm.lateMs = append(tm.lateMs, wait[e]...)
			tm.sendNs = append(tm.sendNs, send[e]...)
		}
	}
	return correct && r.verdict(lg), nil
}

// waitReceived waits until the server has taken in n messages from
// its sockets or streams; over UDP it gives up after a grace period,
// and the shortfall is the kernel's loss. It yields instead of
// sleeping: on a mostly idle process a sub-millisecond sleep lasts a
// millisecond or more, which would quantize the drain the cut times.
func waitReceived(srv *haystack.Server, n uint64, tcp bool) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := srv.Stats()
		got := st.Datagrams
		if tcp {
			got = st.StreamMessages
		}
		if got >= n || (!tcp && time.Now().After(deadline)) {
			return
		}
		runtime.Gosched()
	}
}

// checkWindow compares a window's detections with its reference bin:
// every detection must be in the bin, stamped with the bin's hour. The
// bin's detections and subscribers the window lacks are added to the
// run's shortfall. Evidence is monotone, so a run that loses records
// can only fall short; verdict requires no shortfall from a run whose
// ledger shows no loss.
func (r *run) checkWindow(res *haystack.WindowResult, hr *hourRef) error {
	first := hr.hour.Time()
	for _, d := range res.Detections {
		rule, ok := r.ruleIdx[d.Rule]
		if !ok {
			return fmt.Errorf("window %d: unknown rule %q", res.Seq, d.Rule)
		}
		if _, ok := hr.lookupDet(d.Subscriber, rule); !ok || !d.First.Equal(first) {
			return fmt.Errorf("window %d: detection %016x/%s@%v not in the reference", res.Seq, d.Subscriber, d.Rule, d.First)
		}
	}
	if len(res.Detections) > len(hr.dets) || res.Subscribers > hr.subscribers {
		return fmt.Errorf("window %d: %d detections over %d subscribers, reference %d over %d",
			res.Seq, len(res.Detections), res.Subscribers, len(hr.dets), hr.subscribers)
	}
	r.shortDets += len(hr.dets) - len(res.Detections)
	r.shortSubs += hr.subscribers - res.Subscribers
	return nil
}

// verdict is false when a run without any counted record loss fell
// short of the reference.
func (r *run) verdict(lg *ledger) bool {
	lossless := lg.RecordsDelivered == lg.RecordsSent && lg.KernelDatagrams == 0 && lg.LaneQueueDrops == 0 &&
		lg.DecodeErrors == 0 && lg.TemplateDrops == 0 && lg.FramingErrors == 0
	if lossless && (r.shortDets > 0 || r.shortSubs > 0) {
		fmt.Fprintf(os.Stderr, "perfbench: lossless run fell short of the reference by %d detections and %d subscribers\n", r.shortDets, r.shortSubs)
		return false
	}
	return true
}

// ---- open loop: isp-tcp-dense and udp-trickle ----

// recvEvent is one detection event as the harness consumer saw it.
type recvEvent struct {
	sub    uint64
	at     int64 // ns since the first send
	window uint32
	rule   int32 // dictionary index; -1 for an unknown name
}

// runOpen drives the scheduled hours: each hour's datagrams are sent
// at their due times, then the window is drained and cut in the idle
// gap. The last hour's window is left open: the server is killed (and,
// with a log, restarted on the same directories).
func (r *run) runOpen(tm *timing, lg *ledger) (bool, error) {
	w := r.wire
	dir, err := os.MkdirTemp(r.dir, "open-")
	if err != nil {
		return false, err
	}
	logDir := ""
	if r.w.log {
		logDir = filepath.Join(dir, "log")
	}
	var (
		onRotate  func(haystack.WindowResult)
		exportErr error
		exported  []string
		rows      []uint64
	)
	if r.w.export {
		exporter, err := haystack.NewExportDir(filepath.Join(dir, "export"), "jsonl")
		if err != nil {
			return false, err
		}
		onRotate = func(res haystack.WindowResult) {
			p, err := exporter.Export(&res)
			if err != nil && exportErr == nil {
				exportErr = err
			}
			exported = append(exported, p)
			rows = append(rows, uint64(len(res.Detections)))
		}
	}
	det := r.sys.NewShardedDetector(threshold, r.nproc)
	defer det.Close()
	srv, err := det.Listen(r.listenConfig(logDir, onRotate))
	if err != nil {
		return false, err
	}
	killed := false
	defer func() {
		if !killed {
			srv.Kill()
		}
	}()

	// The consumer keeps every event in a slice sized for the whole run
	// up front, so its appends never allocate.
	events := make([]recvEvent, 0, w.expected()+1024)
	evCh, cancel := det.Subscribe()
	defer cancel()

	var tcpConns [2]net.Conn
	var udpConns [2]*net.UDPConn
	if r.w.tcp {
		for e := range tcpConns {
			c, err := net.Dial("tcp", srv.Addrs()[0].String())
			if err != nil {
				closeConns(tcpConns[:])
				return false, err
			}
			tcpConns[e] = c
		}
		defer closeConns(tcpConns[:])
	} else {
		if udpConns, err = dialUDP(srv.Addrs()[0]); err != nil {
			return false, err
		}
		defer closeConns(udpConns[:])
	}

	// Sized up front, so the heap measurement does not see them grow.
	tm.lateMs = make([]float64, 0, len(w.dgs))
	tm.sendNs = make([]float64, 0, len(w.dgs))
	var heap0 uint64
	var gcCPU time.Duration // forced-GC CPU, which is not the workload's
	correct := true
	stopPoll := r.pollDetector(det, tm)
	cpu0 := cpuTime()
	t0 := time.Now()
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for ev := range evCh {
			rule, known := r.ruleIdx[ev.Rule]
			if !known {
				rule = -1
			}
			events = append(events, recvEvent{sub: ev.Subscriber, at: int64(time.Since(t0)), window: uint32(ev.Window), rule: rule})
		}
	}()
	defer func() { cancel(); <-consumerDone }()
	var sentDg uint64
	lastHour := len(w.hours) - 1
	for hi := range w.hours {
		hr := &w.hours[hi]
		tFirst := time.Duration(-1)
		for i := hr.first; i < hr.last; {
			now := time.Since(t0)
			if due := w.dgs[i].due; due > now {
				time.Sleep(due - now)
				continue
			}
			if tFirst < 0 {
				tFirst = now
			}
			j := i
			for j < hr.last && w.dgs[j].due <= now {
				j++
			}
			s := time.Now()
			if err := r.sendRange(i, j, tcpConns, udpConns); err != nil {
				return false, err
			}
			d := time.Since(s)
			late := float64(now-w.dgs[i].due) / 1e6
			for k := i; k < j; k++ {
				tm.lateMs = append(tm.lateMs, late)
			}
			tm.sendNs = append(tm.sendNs, float64(d.Nanoseconds())/float64(j-i))
			if r.tr != nil {
				r.tr.span("gen.send", -1, int64(i), s, d)
			}
			sentDg += uint64(j - i)
			if r.w.tcp && i <= r.lose && r.lose < j {
				sentDg-- // a withheld stream message never reaches the framer
			}
			i = j
		}
		tLast := time.Since(t0)
		waitReceived(srv, sentDg, r.w.tcp)
		srv.Sync()
		tDrained := time.Since(t0)
		tm.ingestRate = append(tm.ingestRate, float64(hr.records)/(tDrained-tFirst).Seconds())
		if hi == lastHour {
			break
		}
		// A collection started by the hour's garbage must not land in
		// the ~10 ms cut by chance; collect first, off the clock.
		c := cpuTime()
		runtime.GC()
		gcCPU += cpuTime() - c
		tRot := time.Now()
		res := srv.RotateNow()
		tm.cutMs = append(tm.cutMs, ((tDrained-tLast)+time.Since(tRot)).Seconds()*1e3)
		tm.drainMs = append(tm.drainMs, (tDrained-tLast).Seconds()*1e3)
		if err := r.checkWindow(&res, hr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			correct = false
		}
		res = haystack.WindowResult{}
		if hi == lastHour-1 {
			// The heap baseline, just before the last hour: the server's
			// receive buffers and batch rings have grown to every earlier
			// hour's peak, and its detection state was just reset.
			c := cpuTime()
			heap0 = liveHeap()
			gcCPU += cpuTime() - c
		}
	}
	tEnd := time.Now()

	// Close the last window without a cut, as a crash would.
	if err := srv.Kill(); err != nil {
		return false, err
	}
	killed = true
	tm.cpu = cpuTime() - cpu0 - gcCPU
	stopPoll()
	tm.wall = tEnd.Sub(t0)
	tm.records = uint64(w.records)
	det.Detections() // synchronizes the pipeline, so every event has fired
	waitEventsFlushed(det)
	cancel()
	<-consumerDone
	heapGrowth := uint64(0)
	h := liveHeap()
	tm.heapLive = h
	if h > heap0 {
		heapGrowth = h - heap0
	}
	last := det.Rotate()
	if last.Subscribers > 0 {
		tm.heapPerSub = float64(heapGrowth) / float64(last.Subscribers)
	}
	if err := r.checkWindow(&last, &w.hours[lastHour]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: open window:", err)
		correct = false
	}

	lg.addServer(srv.Stats(), det.Stats(), sentDg, !r.w.tcp)
	lg.RecordsSent = uint64(w.records)
	lg.DetectionsExpect = uint64(w.expected())
	if r.w.log {
		lg.LogAppendErrors = srv.LogWriterStats().AppendErrors
		lg.LogAppended = srv.LogWriterStats().EventsAppended
	}
	if exportErr != nil {
		return false, exportErr
	}
	if r.w.export {
		if err := r.checkExports(exported, rows); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			correct = false
		}
	}

	streamSeen, ok := r.checkEvents(events, tm, lg)
	correct = correct && ok
	if r.w.log {
		ok, err := r.restartFromLog(logDir, streamSeen, lg)
		if err != nil {
			return false, err
		}
		correct = correct && ok
	} else {
		lg.MissingEither = lg.MissingFromStream
	}
	return correct && r.verdict(lg), nil
}

// sendRange sends datagrams [i, j). Over TCP each exporter's due
// messages are contiguous in its slab and go out in one write.
func (r *run) sendRange(i, j int, tcp [2]net.Conn, udp [2]*net.UDPConn) error {
	w := r.wire
	if tcp[0] == nil {
		for k := i; k < j; k++ {
			if k == r.lose {
				continue
			}
			if _, err := udp[w.dgs[k].exp].Write(w.msg(k)); err != nil {
				return err
			}
		}
		return nil
	}
	var lo, hi [2]int
	for e := range lo {
		lo[e] = -1
	}
	flush := func(e int) error {
		if lo[e] < 0 {
			return nil
		}
		_, err := tcp[e].Write(w.slabs[e][lo[e]:hi[e]])
		lo[e] = -1
		return err
	}
	for k := i; k < j; k++ {
		d := &w.dgs[k]
		e := int(d.exp)
		if k == r.lose {
			if err := flush(e); err != nil {
				return err
			}
			continue
		}
		if lo[e] < 0 {
			lo[e] = d.off
		}
		hi[e] = d.end
	}
	for e := range lo {
		if err := flush(e); err != nil {
			return err
		}
	}
	return nil
}

// waitEventsFlushed waits until the broker has fanned out every event
// it queued, bounded by a grace period.
func waitEventsFlushed(det *haystack.Detector) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := det.Stats()
		if st.EventsDelivered >= st.EventsEmitted-st.EventsDropped {
			buffered := 0
			for _, q := range st.EventQueues {
				buffered += q.Buffered
			}
			if buffered == 0 {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// checkExports verifies every exported window file and its row count.
func (r *run) checkExports(paths []string, want []uint64) error {
	if len(paths) != len(r.wire.hours)-1 {
		return fmt.Errorf("export: %d window files, want %d", len(paths), len(r.wire.hours)-1)
	}
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		rows, err := haystack.VerifyWindowJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("export %s: %w", p, err)
		}
		if rows != want[i] {
			return fmt.Errorf("export %s: %d rows, window had %d detections", p, rows, want[i])
		}
	}
	return nil
}

// detKey names one detection of one window.
type detKey struct {
	window uint64
	sub    uint64
	rule   int32
}

// checkEvents matches delivered events with the reference: each must
// belong to its window's reference bin, at most once. It records the
// detection latency of each and counts the reference detections the
// stream missed. The returned set holds the delivered detections.
func (r *run) checkEvents(events []recvEvent, tm *timing, lg *ledger) (map[detKey]bool, bool) {
	w := r.wire
	ok := true
	seen := make(map[detKey]bool, len(events))
	tm.latencyMs = make([][]float64, len(w.hours))
	for _, ev := range events {
		rule := ev.rule
		if rule < 0 || int(ev.window) >= len(w.hours) {
			fmt.Fprintf(os.Stderr, "perfbench: event %016x/%d in window %d is not in the reference\n", ev.sub, ev.rule, ev.window)
			ok = false
			continue
		}
		ref, found := w.hours[ev.window].lookupDet(ev.sub, rule)
		if !found {
			fmt.Fprintf(os.Stderr, "perfbench: event %016x/%d in window %d is not in the reference\n", ev.sub, ev.rule, ev.window)
			ok = false
			continue
		}
		k := detKey{uint64(ev.window), ev.sub, rule}
		if seen[k] {
			fmt.Fprintf(os.Stderr, "perfbench: duplicate event %016x/%d in window %d\n", ev.sub, ev.rule, ev.window)
			ok = false
			continue
		}
		seen[k] = true
		tm.latencyMs[ev.window] = append(tm.latencyMs[ev.window], float64(ev.at-int64(w.dgs[ref.dg].due))/1e6)
	}
	lg.MissingFromStream = uint64(w.expected() - len(seen))
	return seen, ok
}

// restartFromLog reads the event log the killed server left, checks
// it against the reference, restarts a detector on the same
// directories and checks that replay restored exactly the open
// window's logged events.
func (r *run) restartFromLog(logDir string, stream map[detKey]bool, lg *ledger) (bool, error) {
	w := r.wire
	det := r.sys.NewShardedDetector(threshold, r.nproc)
	defer det.Close()
	srv, err := det.Listen(r.listenConfig(logDir, nil))
	if err != nil {
		return false, err
	}
	defer srv.Kill()
	ok := true
	openWindow := uint64(len(w.hours) - 1)
	logged := make(map[detKey]bool, w.expected())
	var openLogged []detKey
	markers := 0
	l := srv.EventLog()
	if _, err := l.ReadAt(l.OldestOffset(), func(_ uint64, rec eventlog.Record) bool {
		if rec.Type == eventlog.TypeWindow {
			markers++
			return true
		}
		ev := rec.Event
		rule, known := r.ruleIdx[ev.Rule]
		k := detKey{ev.Window, ev.Subscriber, rule}
		if !known || ev.Window >= uint64(len(w.hours)) {
			ok = false
			return true
		}
		if _, found := w.hours[ev.Window].lookupDet(ev.Subscriber, rule); !found || logged[k] {
			fmt.Fprintf(os.Stderr, "perfbench: logged event %016x/%s in window %d is not in the reference or repeats\n", ev.Subscriber, ev.Rule, ev.Window)
			ok = false
			return true
		}
		logged[k] = true
		if ev.Window == openWindow {
			openLogged = append(openLogged, k)
		}
		return true
	}); err != nil {
		return false, err
	}
	if markers != len(w.hours)-1 {
		fmt.Fprintf(os.Stderr, "perfbench: log holds %d window markers, want %d\n", markers, len(w.hours)-1)
		ok = false
	}
	if rp := srv.Replay(); rp.ResumedWindow != openWindow || rp.Restored != len(openLogged) {
		fmt.Fprintf(os.Stderr, "perfbench: replay resumed window %d with %d detections, want window %d with %d\n",
			rp.ResumedWindow, rp.Restored, openWindow, len(openLogged))
		ok = false
	}
	restored := det.Detections()
	if len(restored) != len(openLogged) {
		fmt.Fprintf(os.Stderr, "perfbench: restart restored %d detections, log holds %d for the open window\n", len(restored), len(openLogged))
		ok = false
	}
	first := w.hours[openWindow].hour.Time()
	for _, d := range restored {
		k := detKey{openWindow, d.Subscriber, r.ruleIdx[d.Rule]}
		if !logged[k] || !d.First.Equal(first) {
			fmt.Fprintf(os.Stderr, "perfbench: restored detection %016x/%s is not a logged event of the open window\n", d.Subscriber, d.Rule)
			ok = false
			break
		}
	}
	var missLog, missEither uint64
	for hi := range w.hours {
		for _, d := range w.hours[hi].dets {
			k := detKey{uint64(hi), d.sub, d.rule}
			if !logged[k] {
				missLog++
			}
			if !logged[k] || !stream[k] {
				missEither++
			}
		}
	}
	lg.MissingFromLog = missLog
	lg.MissingEither = missEither
	return ok, nil
}
