// Package collector is the socket layer of the wire-fed detector: it
// binds UDP listeners for NetFlow v9 / IPFIX exporters — plus TCP
// stream listeners for IPFIX (RFC 7011 §10.4) — and drives the wire
// messages into per-source ingestion feeds, the deployment shape the
// paper's §6 vantage points imply (flow exporters at an ISP or IXP
// streaming to a central collector).
//
// Architecture (see DESIGN.md for the full three-layer picture):
//
//   - one read-loop goroutine per UDP socket, reading into the
//     socket's own buffer and copying each datagram into a recycled
//     buffer sized to it — the loop never decodes, so a slow feed cannot
//     stall the socket;
//   - one accept loop per TCP listener and one read loop per accepted
//     connection, framing IPFIX messages out of the byte stream by
//     the header's Length field (stream.go) — NetFlow v9 has no
//     length field and stays UDP-only;
//   - a sticky source→lane assignment with per-source decoder state:
//     all messages from one exporter source (a UDP remote address, or
//     one TCP connection) land on the same decode lane, and every
//     source gets its own Feed handle — template caches, sequence
//     anchors, and per-subscriber ordering can never be corrupted by
//     another exporter, even one whose self-chosen source/domain IDs
//     collide. TCP feeds live exactly as long as their connection and
//     are torn down on disconnect;
//   - an adaptive fan-in controller (fanin.go) that scales how many
//     feeds accept new sources with the observed record rate;
//   - per-feed transport metrics (Stats, ServeMetrics) so operators
//     can see drops, gaps, and queue depth per feed, plus
//     connection-level stream counters.
//
// The package knows nothing about detection: it drives any Feed
// implementation. The root haystack package adapts Detector feeds to
// this interface.
package collector

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flow"
)

// FeedStats are the transport-health counters one ingestion feed
// exposes. Implementations must make Stats safe to call while the
// feed is being driven (atomic counters).
//
// haystack:metrics-struct — every exported field must be aggregated by
// a haystack:metrics-export function (enforced by haystacklint).
type FeedStats struct {
	// Records counts decoded flow records delivered downstream.
	Records uint64
	// Dropped counts data sets skipped because their template had not
	// been seen yet (untemplated data over UDP).
	Dropped uint64
	// Gaps counts exporter sequence discontinuities (lost or
	// reordered transport).
	Gaps uint64
}

// Feed is one wire-format ingestion handle. The server drives each
// feed from exactly one worker goroutine; Stats may be read from
// other goroutines at any time.
type Feed interface {
	FeedNetFlow(msg []byte) error
	FeedIPFIX(msg []byte) error
	Stats() FeedStats
	Close()
}

// ArenaFeed is the optional batch extension of Feed: a feed that can
// decode a wire message into a caller-owned record arena. Lanes probe
// for it once per source and hand over their per-lane arena (recycled
// alongside the receive buffers, one arena per lane regardless of how
// many sources the lane carries), so a decode allocates nothing in
// steady state. The feed gets the arena already Reset, may leave
// anything in it, and must not retain it past the call.
//
// The feed may buffer what it decoded instead of handing it on at
// once. Its lane calls Flush whenever its queue drains — after the
// last queued datagram is decoded — on every feed it drove since the
// previous flush, so a quiet exporter's records never wait for more
// traffic. Batches grow with the backlog: a busy lane rarely idles and
// its feeds dispatch full batches, while a lightly loaded lane
// flushes after nearly every datagram.
type ArenaFeed interface {
	FeedNetFlowBatch(msg []byte, arena *flow.Batch) error
	FeedIPFIXBatch(msg []byte, arena *flow.Batch) error
	Flush()
}

// Proto selects the wire protocol of a listener.
type Proto uint8

const (
	// ProtoAuto sniffs each datagram by its version field (9 →
	// NetFlow v9, 10 → IPFIX), so one socket may serve both kinds of
	// exporter.
	ProtoAuto Proto = iota
	ProtoNetFlow
	ProtoIPFIX
)

func (p Proto) String() string {
	switch p {
	case ProtoNetFlow:
		return "netflow"
	case ProtoIPFIX:
		return "ipfix"
	default:
		return "auto"
	}
}

// sniff classifies a datagram by its leading version field. ProtoAuto
// means unrecognized.
func sniff(b []byte) Proto {
	if len(b) < 2 {
		return ProtoAuto
	}
	switch binary.BigEndian.Uint16(b) {
	case 9:
		return ProtoNetFlow
	case 10:
		return ProtoIPFIX
	}
	return ProtoAuto
}

// Listener is one socket to bind: a UDP datagram socket (the default)
// or a TCP stream listener.
type Listener struct {
	// Addr is the listen address (host:port; port 0 binds an
	// ephemeral port, reported by Server.Addrs).
	Addr string
	// Proto fixes the socket's wire protocol. On UDP the zero value
	// (ProtoAuto) sniffs per datagram; exporters conventionally use
	// port 2055 for NetFlow v9 and 4739 for IPFIX, but sniffing makes
	// the convention optional. TCP listeners must pin ProtoIPFIX —
	// only IPFIX carries the message-length field that frames a byte
	// stream (RFC 7011 §3.1); NetFlow v9 (RFC 3954) has none and is
	// UDP-only.
	Proto Proto
	// Net selects the transport: "udp" (the default; "" means udp) or
	// "tcp" for RFC 7011 stream transport.
	Net string
}

// validate normalizes the transport and rejects impossible
// transport/protocol combinations.
func (l Listener) validate() (Listener, error) {
	switch l.Net {
	case "", "udp":
		l.Net = "udp"
	case "tcp":
		if l.Proto != ProtoIPFIX {
			return Listener{}, fmt.Errorf("collector: tcp listener %s must pin ipfix: NetFlow v9 has no message length field to frame a stream (protocol %v)", l.Addr, l.Proto)
		}
	default:
		return Listener{}, fmt.Errorf("collector: unknown transport %q (want udp or tcp)", l.Net)
	}
	if l.Addr == "" {
		return Listener{}, errors.New("collector: empty listen address")
	}
	return l, nil
}

// ParseListener parses an operator-facing listener spec:
//
//	host:port                      UDP, auto-sniffed
//	proto@host:port                UDP; proto ∈ netflow, ipfix, auto
//	udp+proto@host:port            same, transport spelled out
//	tcp+ipfix@host:port            TCP stream transport (RFC 7011)
//	tcp@host:port                  shorthand for tcp+ipfix
//
// NetFlow v9 is rejected on tcp at parse time: its messages carry no
// length field, so a byte stream cannot be framed.
func ParseListener(s string) (Listener, error) {
	l := Listener{Addr: s, Net: "udp"}
	if spec, addr, ok := strings.Cut(s, "@"); ok {
		l.Addr = addr
		proto := spec
		if transport, p, ok := strings.Cut(spec, "+"); ok {
			proto = p
			switch transport {
			case "udp":
			case "tcp":
				l.Net = "tcp"
			default:
				return Listener{}, fmt.Errorf("collector: unknown transport %q (want udp or tcp)", transport)
			}
		} else if spec == "tcp" || spec == "udp" {
			// Bare transport: "tcp@host:port" means tcp+ipfix (the
			// only protocol a stream can frame), "udp@…" means auto.
			l.Net, proto = spec, ""
			if spec == "tcp" {
				l.Proto = ProtoIPFIX
			}
		}
		switch proto {
		case "netflow":
			l.Proto = ProtoNetFlow
		case "ipfix":
			l.Proto = ProtoIPFIX
		case "auto":
			l.Proto = ProtoAuto
		case "":
		default:
			return Listener{}, fmt.Errorf("collector: unknown protocol %q (want netflow, ipfix, or auto)", proto)
		}
	}
	return l.validate()
}

// Config sizes a Server. Zero fields take the documented defaults.
type Config struct {
	// Listeners are the sockets to bind (UDP datagram or TCP stream);
	// at least one is required.
	Listeners []Listener
	// MaxFeeds caps the fan-in: the most ingestion feeds the adaptive
	// controller may open. Callers usually cap this at the pipeline
	// shard count. Default 1.
	MaxFeeds int
	// MinFeeds floors the fan-in (default 1).
	MinFeeds int
	// QueueLen bounds each feed's datagram backlog; when a feed's
	// queue is full newly arrived datagrams for it are dropped and
	// counted, never blocking the socket loop. Default 256.
	QueueLen int
	// MaxDatagram sizes each UDP socket's read buffer and bounds one
	// wire message on either transport (default 65535, the UDP
	// maximum and the largest length an IPFIX header can declare;
	// exporters keep well under path MTU in practice). A TCP message whose Length
	// field exceeds it is a framing error and kills the connection.
	MaxDatagram int
	// ReadBuffer, when positive, requests SO_RCVBUF bytes on each
	// socket — the kernel-side cushion against ingest bursts.
	ReadBuffer int
	// IdleTimeout is the per-connection read deadline on TCP stream
	// listeners: a connection delivering no bytes for this long is
	// closed (and its feed torn down), so half-dead exporters cannot
	// pin feeds forever. Default 10m — comfortably above common IPFIX
	// template-refresh intervals; negative disables the deadline.
	IdleTimeout time.Duration
	// MaxConns bounds concurrently open TCP stream connections across
	// all stream listeners — every open connection costs a goroutine
	// and (once it speaks) decoder state, so an unbounded accept loop
	// would hand a hostile peer the collector's memory. Connections
	// accepted past the cap are closed immediately and counted
	// (stream_conns_rejected); the cap is approximate under
	// concurrent accept loops. Default 1024; negative = unlimited.
	MaxConns int
	// RatePerFeed is the records/sec one feed is provisioned for
	// before the controller grows the pool (default
	// DefaultRatePerFeed).
	RatePerFeed float64
	// Tick is the fan-in controller's sampling interval (default 1s).
	Tick time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxFeeds < 1 {
		out.MaxFeeds = 1
	}
	if out.MinFeeds < 1 {
		out.MinFeeds = 1
	}
	if out.MinFeeds > out.MaxFeeds {
		out.MinFeeds = out.MaxFeeds
	}
	if out.QueueLen < 1 {
		out.QueueLen = 256
	}
	if out.MaxDatagram < 1 {
		out.MaxDatagram = 65535
	}
	if out.MaxDatagram < ipfixHeaderLen {
		// No flow protocol fits a smaller message, and the stream
		// framer needs room for at least one IPFIX header.
		out.MaxDatagram = ipfixHeaderLen
	}
	if out.RatePerFeed <= 0 {
		out.RatePerFeed = DefaultRatePerFeed
	}
	if out.Tick <= 0 {
		out.Tick = time.Second
	}
	if out.IdleTimeout == 0 {
		out.IdleTimeout = 10 * time.Minute
	}
	if out.MaxConns == 0 {
		out.MaxConns = 1024
	}
	return out
}

// datagram is one received wire message in a recycled buffer — a UDP
// payload, an IPFIX message framed out of a TCP stream, or (with
// closeSource set) the tear-down marker for a departed stream source.
type datagram struct {
	buf   []byte // the message, in a pooled buffer returned after decode
	proto Proto  // listener protocol (ProtoAuto: sniff at decode time)
	src   sourceKey
	// closeSource marks a control message: the source has
	// disconnected, close and forget its feed. buf is nil.
	closeSource bool
}

type socket struct {
	idx   int
	proto Proto
	pc    net.PacketConn
	// udp is pc when the socket is a plain UDP socket, enabling the
	// ReadFromUDPAddrPort fast path: ReadFrom allocates a *net.UDPAddr
	// per datagram, ReadFromUDPAddrPort returns a value netip.AddrPort.
	udp *net.UDPConn
	// buf receives every datagram (MaxDatagram bytes); the read loop
	// copies each one out into a pooled buffer sized to it.
	buf []byte
}

// sourceKey identifies one exporter stream: the listener it arrived
// on plus a transport-specific source identity.
type sourceKey struct {
	sock int
	// src is the remote address for address-identified transports
	// (UDP). raw carries any net.Addr the transport cannot express as
	// an AddrPort, so unrelated exotic sources never collapse onto one
	// zero-valued key.
	src netip.AddrPort
	raw string
	// conn makes stream sources connection-identified: each accepted
	// TCP connection is its own source (serial > 0), so a reconnecting
	// exporter — even from the same remote port — gets fresh decoder
	// state rather than inheriting a dead connection's.
	conn uint64
}

// addrKey renders any net.Addr as a sourceKey address identity,
// transport-aware: UDP and TCP addresses map to their AddrPort; any
// other implementation keeps its full string form so two distinct
// sources can never share a key.
func addrKey(a net.Addr) (src netip.AddrPort, raw string) {
	switch t := a.(type) {
	case *net.UDPAddr:
		return t.AddrPort(), ""
	case *net.TCPAddr:
		return t.AddrPort(), ""
	case nil:
		return netip.AddrPort{}, "<nil>"
	}
	if ap, err := netip.ParseAddrPort(a.String()); err == nil {
		return ap, ""
	}
	return netip.AddrPort{}, a.Network() + "/" + a.String()
}

// worker is one decode lane: a goroutine draining a bounded queue
// into per-source Feed handles. Every exporter source assigned to the
// lane gets its own Feed (decoder pair + pipeline producer), so two
// exporters whose self-chosen source/domain IDs collide can never
// poison each other's template cache or sequence anchor.
type worker struct {
	idx     int
	ch      chan datagram
	started atomic.Bool

	// arena is the lane's record arena: every ArenaFeed decode on this
	// lane reuses it (reset-don't-free), so per-datagram decode costs
	// no allocation once the arena has grown to the working set. Owned
	// by the lane goroutine.
	arena *flow.Batch

	// feeds is written only by the worker goroutine (under mu, so
	// metrics readers can iterate a consistent view); the worker's
	// own lock-free reads race with nothing.
	mu    sync.Mutex
	feeds map[sourceKey]*laneFeed

	// fed lists the batch feeds decoded into since the lane's last
	// flush; the lane flushes them when its queue drains. Owned by the
	// lane goroutine.
	fed []*laneFeed

	sources   atomic.Int64  // sticky exporter sources assigned here
	enqueued  atomic.Uint64 // messages accepted onto ch (incl. control)
	processed atomic.Uint64 // messages handled by the lane (incl. control)
	controls  atomic.Uint64 // closeSource control messages handled
	dropped   atomic.Uint64 // datagrams lost to a full queue
	errors    atomic.Uint64 // datagrams the decoders rejected (or unsniffable)

	// retired* accumulate the final FeedStats of torn-down stream
	// sources, so lane/server record counts stay cumulative across
	// exporter disconnects — the control loop's rate sampling differs
	// uint64 totals per tick, and a total that shrank at teardown
	// would wrap into an absurd positive rate and slam the fan-in to
	// max.
	retiredRecords atomic.Uint64
	retiredDropped atomic.Uint64
	retiredGaps    atomic.Uint64
}

// laneFeed is one source's feed as its lane holds it.
type laneFeed struct {
	Feed
	batch ArenaFeed // the feed's batch form; nil when it has none
	fed   bool      // on the lane's fed list
}

// newLaneFeed wraps a new source's feed, probing once for its batch
// form.
func newLaneFeed(f Feed) *laneFeed {
	af, _ := f.(ArenaFeed)
	return &laneFeed{Feed: f, batch: af}
}

// feedList snapshots the lane's per-source feeds for metrics readers.
func (w *worker) feedList() []Feed {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Feed, 0, len(w.feeds))
	for _, f := range w.feeds {
		out = append(out, f.Feed)
	}
	return out
}

// flush hands on everything the lane's feeds buffered since the last
// flush. The lane calls it when its queue is empty.
func (w *worker) flush() {
	for _, f := range w.fed {
		f.batch.Flush()
		f.fed = false
	}
	clear(w.fed) // a torn-down feed must not stay reachable from here
	w.fed = w.fed[:0]
}

// Server binds the configured sockets and fans wire messages into
// feeds.
type Server struct {
	cfg     Config
	newFeed func() Feed

	socks   []*socket
	streams []*streamListener
	addrs   []net.Addr // bound address per configured listener
	workers []*worker
	bufs    *bufPool // recycled message buffers

	// active is the fan-in target: workers[0:active] accept new
	// sources. Updated by the control loop, read by the dispatchers.
	active atomic.Int32
	ewma   atomic.Uint64 // controller EWMA, math.Float64bits

	assignMu sync.Mutex // guards assignment misses and worker starts
	assign   sync.Map   // sourceKey → *worker

	datagrams  atomic.Uint64 // received across all UDP sockets
	bytes      atomic.Uint64 // UDP bytes received
	dropped    atomic.Uint64 // queue-full drops across all workers
	readErrors atomic.Uint64 // unexpected socket/accept errors (loop survives)

	// Stream-transport counters (stream.go).
	connSerial    atomic.Uint64 // next connection-source serial
	streamConns   atomic.Int64  // connections open right now
	acceptedConns atomic.Uint64 // connections accepted, lifetime
	rejectedConns atomic.Uint64 // connections refused at the MaxConns cap
	streamMsgs    atomic.Uint64 // IPFIX messages framed off streams
	streamBytes   atomic.Uint64 // stream payload bytes framed
	framingErrors atomic.Uint64 // desynced/oversized/mistyped frames

	connMu sync.Mutex // guards conns
	conns  map[net.Conn]struct{}

	readers sync.WaitGroup // socket read loops, accept loops, conn loops
	tasks   sync.WaitGroup // worker + control goroutines
	done    chan struct{}  // closed to stop the control loop
	closed  sync.Once
}

// Listen binds every configured socket and starts ingesting
// immediately. newFeed is called once per exporter source the fan-in
// opens — for the haystack Detector it returns Detector.NewFeed
// handles. Callers stop the server with Close (or Serve with a
// context).
func Listen(cfg Config, newFeed func() Feed) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Listeners) == 0 {
		return nil, errors.New("collector: no listeners configured")
	}
	if newFeed == nil {
		return nil, errors.New("collector: nil feed constructor")
	}
	s := &Server{
		cfg:     cfg,
		newFeed: newFeed,
		bufs:    newBufPool(cfg.MaxFeeds*cfg.QueueLen + 2*len(cfg.Listeners)),
		conns:   make(map[net.Conn]struct{}),
		done:    make(chan struct{}), // haystack:unbounded close-only shutdown broadcast; never carries data
		addrs:   make([]net.Addr, len(cfg.Listeners)),
	}
	s.active.Store(int32(cfg.MinFeeds))
	s.workers = make([]*worker, cfg.MaxFeeds)
	for i := range s.workers {
		s.workers[i] = &worker{
			idx:   i,
			ch:    make(chan datagram, cfg.QueueLen),
			feeds: make(map[sourceKey]*laneFeed),
			arena: flow.NewBatch(512),
		}
	}
	closeAll := func() {
		for _, sk := range s.socks {
			sk.pc.Close()
		}
		for _, sl := range s.streams {
			sl.ln.Close()
		}
	}
	for i, l := range cfg.Listeners {
		l, err := l.validate()
		if err != nil {
			closeAll()
			return nil, err
		}
		if l.Net == "tcp" {
			ln, err := net.Listen("tcp", l.Addr)
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("collector: listen tcp %s: %w", l.Addr, err)
			}
			s.streams = append(s.streams, &streamListener{idx: i, ln: ln})
			s.addrs[i] = ln.Addr()
			continue
		}
		pc, err := net.ListenPacket("udp", l.Addr)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("collector: listen %s: %w", l.Addr, err)
		}
		if cfg.ReadBuffer > 0 {
			if c, ok := pc.(*net.UDPConn); ok {
				c.SetReadBuffer(cfg.ReadBuffer) // best effort; kernel may clamp
			}
		}
		udp, _ := pc.(*net.UDPConn)
		s.socks = append(s.socks, &socket{idx: i, proto: l.Proto, pc: pc, udp: udp, buf: make([]byte, cfg.MaxDatagram)})
		s.addrs[i] = pc.LocalAddr()
	}
	for _, sk := range s.socks {
		s.readers.Add(1)
		go s.readLoop(sk)
	}
	for _, sl := range s.streams {
		s.readers.Add(1)
		go s.acceptLoop(sl)
	}
	s.tasks.Add(1)
	go s.controlLoop()
	return s, nil
}

// Addrs returns the bound address of every listener, in configuration
// order — the way to discover ephemeral ports after binding ":0".
func (s *Server) Addrs() []net.Addr {
	return append([]net.Addr(nil), s.addrs...)
}

// Serve blocks until ctx is done, then shuts the server down
// gracefully (Close): a cancelled listen is the normal way to stop.
func (s *Server) Serve(ctx context.Context) error {
	<-ctx.Done()
	return s.Close()
}

// Close stops the server: sockets, stream listeners, and open
// connections are closed first, then every queued message is drained
// through its feed, feeds are closed, and all goroutines exit. Safe
// to call multiple times; concurrent callers block until the shutdown
// completes.
func (s *Server) Close() error {
	s.closed.Do(func() {
		close(s.done)
		for _, sk := range s.socks {
			sk.pc.Close()
		}
		for _, sl := range s.streams {
			sl.ln.Close()
		}
		s.connMu.Lock()
		open := make([]net.Conn, 0, len(s.conns))
		for c := range s.conns {
			open = append(open, c)
		}
		s.connMu.Unlock()
		for _, c := range open {
			c.Close()
		}
		s.readers.Wait() // no dispatcher is running past this point
		for _, w := range s.workers {
			if w.started.Load() {
				close(w.ch)
			}
		}
		s.tasks.Wait()
	})
	return nil
}

// Sync blocks until every datagram enqueued before the call has been
// decoded and handed to its feed. It does not quiesce the sockets —
// datagrams arriving during the wait are not covered — so callers
// wanting exact results stop their exporters (or Close) first.
func (s *Server) Sync() {
	targets := make([]uint64, len(s.workers))
	for i, w := range s.workers {
		targets[i] = w.enqueued.Load()
	}
	for i, w := range s.workers {
		for w.processed.Load() < targets[i] {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// Message buffers come in power-of-two size classes from minBufClass
// up, so a queued message pins at most twice its own size rather than
// a MaxDatagram-sized buffer.
const (
	minBufClass = 2048
	numBufClass = 6 // 2 KiB … 64 KiB, enough for any IPFIX or UDP message
)

// bufPool recycles message buffers through one bounded ring per size
// class. Ringed buffers are kept at full length.
type bufPool struct {
	free [numBufClass]chan []byte
}

// newBufPool returns a pool whose rings each keep up to ring buffers.
func newBufPool(ring int) *bufPool {
	p := &bufPool{}
	for c := range p.free {
		p.free[c] = make(chan []byte, ring)
	}
	return p
}

// fullLength reslices b to its capacity. It is a separate, unannotated
// function because the hot-path bounds prover reasons about lengths,
// not capacities.
func fullLength(b []byte) []byte { return b[:cap(b)] }

// bufClass returns the smallest class holding n bytes (the largest
// class for n beyond it).
func bufClass(n int) int {
	c := 0
	for c < numBufClass-1 && minBufClass<<c < n {
		c++
	}
	return c
}

// get returns a buffer of length n from its class ring, allocating
// one of the class size when the ring runs dry.
//
// haystack:hotpath — runs once per datagram.
func (p *bufPool) get(n int) []byte {
	c := bufClass(n)
	size := max(n, minBufClass<<c)
	select {
	case b := <-p.free[c]:
		if n <= len(b) {
			return b[:n]
		}
	default:
	}
	return make([]byte, size)[:n]
}

// put returns a buffer to its class ring, dropping it when the ring is
// full or the buffer is no class size.
//
// haystack:hotpath — runs once per datagram.
func (p *bufPool) put(b []byte) {
	c := bufClass(cap(b))
	if minBufClass<<c != cap(b) {
		return
	}
	select {
	case p.free[c] <- fullLength(b):
	default: // recycle ring full; let it be collected
	}
}

// readLoop is the per-socket hot path: read, count, copy into a
// buffer sized to the datagram, route, hand off. It never decodes and
// never blocks on a feed.
//
// haystack:hotpath — loops once per datagram (time.Sleep appears only
// on the persistent-read-error path and is deliberately not banned).
func (s *Server) readLoop(sk *socket) {
	defer s.readers.Done()
	scratch := sk.buf
	for {
		var (
			n   int
			err error
			key = sourceKey{sock: sk.idx}
		)
		if sk.udp != nil {
			// Fast path: no *net.UDPAddr allocated per datagram.
			n, key.src, err = sk.udp.ReadFromUDPAddrPort(scratch)
		} else {
			var addr net.Addr
			n, addr, err = sk.pc.ReadFrom(scratch)
			key.src, key.raw = addrKey(addr)
		}
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // shutdown
			}
			select {
			case <-s.done:
				return
			default:
			}
			// Unexpected read error on a connectionless socket:
			// count it visibly and keep the listener alive, pacing
			// so a persistent error cannot hot-spin the loop.
			s.readErrors.Add(1)
			time.Sleep(time.Millisecond)
			continue
		}
		s.datagrams.Add(1)
		s.bytes.Add(uint64(n))
		// A read never returns more than len(scratch); the clamp
		// keeps the copy provably in bounds.
		if n < 0 || n > len(scratch) {
			n = len(scratch)
		}
		buf := s.bufs.get(n)
		copy(buf, scratch[:n])
		w := s.workerFor(key)
		select {
		case w.ch <- datagram{buf: buf, proto: sk.proto, src: key}:
			w.enqueued.Add(1)
		default:
			// Full queue: drop like the kernel would if nobody read
			// the socket, but visibly.
			w.dropped.Add(1)
			s.dropped.Add(1)
			s.bufs.put(buf)
		}
	}
}

// workerFor resolves the sticky source→lane assignment, creating it
// on first sight of a source. Assignments are sticky for the life of
// the server: moving a source would abandon its template cache and
// sequence anchor and reorder its subscribers' records. The fan-in
// target only shapes where *new* sources land.
func (s *Server) workerFor(key sourceKey) *worker {
	if v, ok := s.assign.Load(key); ok {
		return v.(*worker)
	}
	s.assignMu.Lock()
	defer s.assignMu.Unlock()
	if v, ok := s.assign.Load(key); ok {
		return v.(*worker)
	}
	// Least-loaded (by assigned sources) among the active prefix.
	n := int(s.active.Load())
	if n > len(s.workers) {
		n = len(s.workers)
	}
	w := s.workers[0]
	for _, cand := range s.workers[1:n] {
		if cand.sources.Load() < w.sources.Load() {
			w = cand
		}
	}
	s.startWorker(w)
	w.sources.Add(1)
	s.assign.Store(key, w)
	return w
}

// startWorker lazily launches the lane's decode goroutine. Caller
// holds assignMu.
func (s *Server) startWorker(w *worker) {
	if w.started.Load() {
		return
	}
	s.tasks.Add(1)
	go func() {
		defer s.tasks.Done()
		for d := range w.ch {
			s.decode(w, d)
			if len(w.ch) == 0 {
				// Queue drained: hand on what the feeds buffered.
				w.flush()
			}
		}
		for _, f := range w.feedList() {
			f.Close()
		}
	}()
	w.started.Store(true)
}

// decode runs a lane's per-datagram work: sniff, feed, count.
//
// haystack:hotpath — runs once per datagram on the lane goroutine.
func (s *Server) decode(w *worker, d datagram) {
	if d.closeSource {
		// Stream source disconnected: close its feed and release the
		// source slot so the lane's decoder state does not accumulate
		// across exporter reconnects. The feed may never have
		// materialized (every message dropped at a full queue); the
		// assignment exists either way — connLoop only announces
		// sources it routed.
		if f := w.feeds[d.src]; f != nil {
			// Close flushes the feed itself; no later lane flush may
			// touch it.
			if i := slices.Index(w.fed, f); i >= 0 {
				w.fed = slices.Delete(w.fed, i, i+1)
			}
			f.Close()
			fs := f.Stats()
			// Remove the feed before crediting its totals to the
			// retired counters: a concurrent records() read may then
			// transiently undercount (harmless dip), but never
			// double-count — an inflated total would make the control
			// loop's next uint64 rate difference wrap hugely positive
			// and slam the fan-in to max.
			w.mu.Lock()
			delete(w.feeds, d.src)
			w.mu.Unlock()
			w.retiredRecords.Add(fs.Records)
			w.retiredDropped.Add(fs.Dropped)
			w.retiredGaps.Add(fs.Gaps)
		}
		w.sources.Add(-1)
		s.assign.Delete(d.src)
		// processed before controls: metrics readers load controls
		// first and subtract it from processed, which stays
		// non-negative only if every control visible in controls has
		// already been counted in processed.
		w.processed.Add(1)
		w.controls.Add(1)
		return
	}
	msg := d.buf
	proto := d.proto
	if proto == ProtoAuto {
		proto = sniff(msg)
	}
	if proto == ProtoAuto {
		// Unclassifiable garbage: count it without allocating decoder
		// state for the source.
		w.errors.Add(1)
		w.processed.Add(1)
		s.bufs.put(d.buf)
		return
	}
	feed := w.feeds[d.src] // lock-free: only this goroutine writes
	if feed == nil {
		feed = newLaneFeed(s.newFeed())
		w.mu.Lock()
		w.feeds[d.src] = feed
		w.mu.Unlock()
	}
	var err error
	if af := feed.batch; af != nil {
		// Batch hot path: decode the whole message into the lane's
		// recycled arena; the feed may buffer the batch until the lane
		// flushes it.
		w.arena.Reset()
		if proto == ProtoNetFlow {
			err = af.FeedNetFlowBatch(msg, w.arena)
		} else {
			err = af.FeedIPFIXBatch(msg, w.arena)
		}
		if !feed.fed {
			feed.fed = true
			w.fed = append(w.fed, feed)
		}
	} else if proto == ProtoNetFlow {
		err = feed.FeedNetFlow(msg)
	} else {
		err = feed.FeedIPFIX(msg)
	}
	if err != nil {
		w.errors.Add(1)
	}
	w.processed.Add(1)
	s.bufs.put(d.buf)
}

// controlLoop samples the aggregate record rate and retargets the
// fan-in. It owns the controller state; everyone else reads the
// published active target and EWMA.
func (s *Server) controlLoop() {
	defer s.tasks.Done()
	ctrl := newController(s.cfg.MinFeeds, s.cfg.MaxFeeds, s.cfg.RatePerFeed)
	t := time.NewTicker(s.cfg.Tick)
	defer t.Stop()
	last := s.records()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			// records() can dip transiently while a stream source's
			// totals move from its live feed to the retired counters;
			// clamp to the high-water mark so the unsigned difference
			// can never wrap into an absurd rate.
			cur := s.records()
			var rate float64
			if cur > last {
				rate = float64(cur-last) / s.cfg.Tick.Seconds()
				last = cur
			}
			s.active.Store(int32(ctrl.step(rate)))
			s.ewma.Store(math.Float64bits(ctrl.ewma))
		}
	}
}

// records sums decoded records across all per-source feeds, live and
// retired — the total is monotonic, which the control loop's
// per-tick differencing depends on.
func (s *Server) records() uint64 {
	var n uint64
	for _, w := range s.workers {
		if !w.started.Load() {
			continue
		}
		n += w.retiredRecords.Load()
		for _, f := range w.feedList() {
			n += f.Stats().Records
		}
	}
	return n
}
