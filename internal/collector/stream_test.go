package collector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
)

// streamMsg builds one minimal IPFIX-framed message: version 10, the
// Length field covering header + payload bytes, and a marker byte at
// offset 4 (the export-time field) so tests can attribute deliveries
// to their sending connection.
func streamMsg(marker byte, payload int) []byte {
	m := make([]byte, ipfixHeaderLen+payload)
	binary.BigEndian.PutUint16(m[0:2], ipfixStreamVersion)
	binary.BigEndian.PutUint16(m[2:4], uint16(len(m)))
	m[4] = marker
	return m
}

func TestParseListenerStream(t *testing.T) {
	for _, tc := range []struct {
		in    string
		addr  string
		netw  string
		proto Proto
		bad   bool
	}{
		{in: "tcp+ipfix@:4739", addr: ":4739", netw: "tcp", proto: ProtoIPFIX},
		{in: "tcp@127.0.0.1:4739", addr: "127.0.0.1:4739", netw: "tcp", proto: ProtoIPFIX},
		{in: "udp+netflow@:2055", addr: ":2055", netw: "udp", proto: ProtoNetFlow},
		{in: "udp@:2055", addr: ":2055", netw: "udp", proto: ProtoAuto},
		{in: "udp+auto@:2055", addr: ":2055", netw: "udp", proto: ProtoAuto},
		{in: "tcp+netflow@:2055", bad: true}, // no length field to frame
		{in: "tcp+auto@:4739", bad: true},    // a stream cannot sniff per message
		{in: "sctp+ipfix@:4739", bad: true},
		{in: "tcp+ipfix@", bad: true},
	} {
		l, err := ParseListener(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseListener(%q) accepted: %+v", tc.in, l)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseListener(%q): %v", tc.in, err)
			continue
		}
		if l.Addr != tc.addr || l.Net != tc.netw || l.Proto != tc.proto {
			t.Errorf("ParseListener(%q) = %+v", tc.in, l)
		}
	}
}

// TestNextIPFIXMessage covers the framer against every split and
// every malformation class directly, without sockets.
func TestNextIPFIXMessage(t *testing.T) {
	msg := streamMsg('m', 12)
	pool := newBufPool(1)

	// Whole messages back to back, delivered one byte per Read — the
	// framer must reassemble across every possible read boundary.
	stream := append(append([]byte{}, msg...), streamMsg('n', 0)...)
	r := iotest.OneByteReader(bytes.NewReader(stream))
	buf, err := nextIPFIXMessage(r, 65535, pool)
	if err != nil || !bytes.Equal(buf, msg) {
		t.Fatalf("first frame: n=%d err=%v", len(buf), err)
	}
	pool.put(buf)
	buf, err = nextIPFIXMessage(r, 65535, pool)
	if err != nil || len(buf) != ipfixHeaderLen || buf[4] != 'n' {
		t.Fatalf("second frame: n=%d err=%v", len(buf), err)
	}
	if _, err = nextIPFIXMessage(r, 65535, pool); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}

	for name, tc := range map[string]struct {
		in      []byte
		wantErr error
	}{
		"wrong version":    {streamMsg('v', 0), errFraming},
		"length too small": {streamMsg('s', 0), errFraming},
		"length too big":   {streamMsg('b', 0), errFraming},
		"truncated header": {msg[:3], errFraming},
		"truncated body":   {msg[:len(msg)-5], io.ErrUnexpectedEOF},
	} {
		in := append([]byte{}, tc.in...)
		switch name {
		case "wrong version":
			binary.BigEndian.PutUint16(in[0:2], 9) // NetFlow on a stream
		case "length too small":
			binary.BigEndian.PutUint16(in[2:4], ipfixHeaderLen-1)
		case "length too big":
			binary.BigEndian.PutUint16(in[2:4], 60000)
		}
		if _, err := nextIPFIXMessage(bytes.NewReader(in), 1024, pool); !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.wantErr)
		}
	}
}

// streamStub is the stream-test Feed: it attributes each message to
// its connection by the marker byte at offset 4.
type streamStub struct {
	msgs    atomic.Uint64
	badNF   atomic.Uint64
	mu      sync.Mutex
	markers map[byte]int
	closed  atomic.Bool
}

func (f *streamStub) FeedIPFIX(m []byte) error {
	f.mu.Lock()
	if f.markers == nil {
		f.markers = map[byte]int{}
	}
	if len(m) > 4 {
		f.markers[m[4]]++
	}
	f.mu.Unlock()
	f.msgs.Add(1)
	return nil
}
func (f *streamStub) FeedNetFlow([]byte) error { f.badNF.Add(1); return nil }
func (f *streamStub) Stats() FeedStats         { return FeedStats{Records: f.msgs.Load()} }
func (f *streamStub) Close()                   { f.closed.Store(true) }

func (f *streamStub) markerSet() map[byte]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[byte]int, len(f.markers))
	for k, v := range f.markers {
		out[k] = v
	}
	return out
}

// stubRegistry collects the feeds a server creates, safely readable
// while the server is still creating more.
type stubRegistry struct {
	mu    sync.Mutex
	feeds []*streamStub
}

func (r *stubRegistry) add(f *streamStub) {
	r.mu.Lock()
	r.feeds = append(r.feeds, f)
	r.mu.Unlock()
}

func (r *stubRegistry) list() []*streamStub {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*streamStub(nil), r.feeds...)
}

func (r *stubRegistry) count() int { return len(r.list()) }

// startStreamServer binds one TCP IPFIX listener over streamStub
// feeds.
func startStreamServer(t *testing.T, cfg Config) (*Server, string, *stubRegistry) {
	t.Helper()
	cfg.Listeners = []Listener{{Addr: "127.0.0.1:0", Proto: ProtoIPFIX, Net: "tcp"}}
	reg := &stubRegistry{}
	srv, err := Listen(cfg, func() Feed {
		f := &streamStub{}
		reg.add(f)
		return f
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addrs()[0].String(), reg
}

// waitFor polls until cond holds or the deadline trips.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// writeChunked writes b in fixed-size chunks so message boundaries
// never align with write boundaries.
func writeChunked(t *testing.T, c net.Conn, b []byte, chunk int) {
	t.Helper()
	for len(b) > 0 {
		n := min(chunk, len(b))
		if _, err := c.Write(b[:n]); err != nil {
			t.Fatal(err)
		}
		b = b[n:]
	}
}

// TestStreamServerConnectionIdentity is the stream-transport core
// contract: each connection is one exporter source with its own
// sticky Feed; messages split across arbitrary write boundaries
// reassemble exactly; disconnect tears the source's feed down and a
// reconnect gets a fresh one.
func TestStreamServerConnectionIdentity(t *testing.T) {
	srv, addr, feeds := startStreamServer(t, Config{MaxFeeds: 1, QueueLen: 1024})

	const per = 50
	conns := make([]net.Conn, 2)
	for i, marker := range []byte{'a', 'b'} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		var stream []byte
		for j := 0; j < per; j++ {
			stream = append(stream, streamMsg(marker, j%29)...)
		}
		writeChunked(t, c, stream, 7) // 7 never divides a message length evenly
	}
	defer conns[1].Close()

	waitFor(t, "all stream messages", func() bool { return srv.Stats().StreamMessages == 2*per })
	srv.Sync()

	st := srv.Stats()
	if st.StreamConns != 2 || st.StreamConnsTotal != 2 {
		t.Fatalf("conns = %d open / %d total, want 2 / 2", st.StreamConns, st.StreamConnsTotal)
	}
	if st.FramingErrors != 0 || st.DroppedDatagrams != 0 {
		t.Fatalf("transport not clean: %+v", st)
	}
	if st.StartedFeeds != 1 || st.Feeds[0].Sources != 2 {
		t.Fatalf("want both connections as sources on one lane: %+v", st.Feeds)
	}
	if feeds.count() != 2 {
		t.Fatalf("got %d feeds, want one per connection", feeds.count())
	}
	for _, f := range feeds.list() {
		ms := f.markerSet()
		if len(ms) != 1 {
			t.Fatalf("feed saw markers %v — connection identity is not sticky", ms)
		}
		for m, n := range ms {
			if n != per {
				t.Fatalf("marker %c: %d messages, want %d", m, n, per)
			}
		}
		if f.badNF.Load() != 0 {
			t.Fatalf("stream messages reached FeedNetFlow")
		}
	}

	// Disconnect one exporter: its feed must be closed and its source
	// slot released, while the other connection is untouched.
	conns[0].Close()
	waitFor(t, "feed teardown after disconnect", func() bool {
		st := srv.Stats()
		return st.StreamConns == 1 && st.StartedFeeds == 1 && st.Feeds[0].Sources == 1
	})
	// The departed source's decode totals stay on the lane's books —
	// cumulative counters must not shrink at disconnect (the fan-in
	// controller differences them per tick).
	if got := srv.Stats().Feeds[0].Records; got != 2*per {
		t.Fatalf("lane records = %d after disconnect, want cumulative %d", got, 2*per)
	}
	closed := 0
	for _, f := range feeds.list() {
		if f.closed.Load() {
			closed++
		}
	}
	if closed != 1 {
		t.Fatalf("%d feeds closed after one disconnect, want 1", closed)
	}

	// A reconnect — same exporter host — is a *new* source: fresh
	// feed, no inherited decoder state.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writeChunked(t, c, streamMsg('c', 3), 2)
	waitFor(t, "reconnected source's feed", func() bool { return feeds.count() == 3 })
	waitFor(t, "reconnect message", func() bool { return srv.Stats().StreamMessages == 2*per+1 })
}

// TestStreamServerFramingErrorKillsConnection: garbage on the stream
// is unrecoverable — the server must count a framing error and drop
// the connection rather than guess at message boundaries.
func TestStreamServerFramingErrorKillsConnection(t *testing.T) {
	srv, addr, feeds := startStreamServer(t, Config{MaxFeeds: 1})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A valid message, then bytes that cannot start an IPFIX header.
	if _, err := c.Write(append(streamMsg('g', 4), 0xde, 0xad, 0xbe, 0xef)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "framing error", func() bool { return srv.Stats().FramingErrors == 1 })
	// The server hangs up; the client sees EOF.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open after framing error")
	}
	waitFor(t, "connection teardown", func() bool { return srv.Stats().StreamConns == 0 })
	srv.Sync()
	// The message before the garbage was still delivered, and its feed
	// was torn down with the connection.
	if feeds.count() != 1 || feeds.list()[0].msgs.Load() != 1 {
		t.Fatalf("pre-garbage message lost: %d feeds", feeds.count())
	}
	waitFor(t, "feed close", func() bool { return feeds.list()[0].closed.Load() })
}

// TestStreamServerMessageSizeBound: a Length field above the
// configured per-message bound is a framing error, so a hostile or
// corrupt stream cannot make the collector buffer arbitrarily.
func TestStreamServerMessageSizeBound(t *testing.T) {
	srv, addr, _ := startStreamServer(t, Config{MaxFeeds: 1, MaxDatagram: 64})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(streamMsg('h', 100)); err != nil { // length 116 > 64
		t.Fatal(err)
	}
	waitFor(t, "oversize framing error", func() bool { return srv.Stats().FramingErrors == 1 })
	if st := srv.Stats(); st.StreamMessages != 0 {
		t.Fatalf("oversized message was framed: %+v", st)
	}
}

// TestStreamServerConnectionCap: connections past MaxConns are
// refused and counted — an open-socket flood cannot grow goroutines
// and decoder state without bound.
func TestStreamServerConnectionCap(t *testing.T) {
	srv, addr, _ := startStreamServer(t, Config{MaxFeeds: 1, MaxConns: 1})
	c1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Write(streamMsg('1', 0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first connection", func() bool { return srv.Stats().StreamConns == 1 })

	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waitFor(t, "cap rejection", func() bool { return srv.Stats().StreamConnsRejected == 1 })
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c2.Read(make([]byte, 1)); err == nil {
		t.Fatal("over-cap connection left open")
	}
	st := srv.Stats()
	if st.StreamConns != 1 || st.StreamConnsTotal != 1 {
		t.Fatalf("cap leaked a connection: %+v", st)
	}

	// Closing the in-budget connection frees the slot for the next.
	c1.Close()
	waitFor(t, "slot freed", func() bool { return srv.Stats().StreamConns == 0 })
	c3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, err := c3.Write(streamMsg('3', 0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-teardown accept", func() bool { return srv.Stats().StreamConnsTotal == 2 })
}

// TestStreamServerIdleTimeout: a connection that goes silent past the
// idle deadline is reaped.
func TestStreamServerIdleTimeout(t *testing.T) {
	srv, addr, _ := startStreamServer(t, Config{MaxFeeds: 1, IdleTimeout: 50 * time.Millisecond})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, "idle connection reaped", func() bool { return srv.Stats().StreamConns == 0 })
	if n := srv.Stats().FramingErrors; n != 0 {
		t.Fatalf("idle close counted %d framing errors", n)
	}
}

// TestStreamServerCloseDrains: Close must deliver every framed
// message already queued, close the per-connection feeds, and leave
// no goroutines behind — the stream flavor of the UDP drain test.
func TestStreamServerCloseDrains(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg := Config{Listeners: []Listener{{Addr: "127.0.0.1:0", Proto: ProtoIPFIX, Net: "tcp"}},
		MaxFeeds: 2, QueueLen: 4096}
	feeds := &stubRegistry{}
	srv, err := Listen(cfg, func() Feed {
		f := &streamStub{}
		feeds.add(f)
		return f
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 400
	c, err := net.Dial("tcp", srv.Addrs()[0].String())
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	for i := 0; i < n; i++ {
		stream = append(stream, streamMsg('d', i%13)...)
	}
	writeChunked(t, c, stream, 1000)
	waitFor(t, "messages framed", func() bool { return srv.Stats().StreamMessages == n })
	srv.Close()
	c.Close()

	if got := feeds.list()[0].msgs.Load(); got != n {
		t.Fatalf("Close drained %d of %d queued messages", got, n)
	}
	if !feeds.list()[0].closed.Load() {
		t.Fatal("feed not closed on shutdown")
	}
	if st := srv.Stats(); st.StreamConns != 0 {
		t.Fatalf("connections survived Close: %+v", st)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestListenRejectsBadStreamListeners: impossible transport/protocol
// combinations fail at Listen, not at the first datagram.
func TestListenRejectsBadStreamListeners(t *testing.T) {
	newFeed := func() Feed { return &streamStub{} }
	for _, l := range []Listener{
		{Addr: "127.0.0.1:0", Proto: ProtoNetFlow, Net: "tcp"},
		{Addr: "127.0.0.1:0", Proto: ProtoAuto, Net: "tcp"},
		{Addr: "127.0.0.1:0", Net: "sctp"},
	} {
		if srv, err := Listen(Config{Listeners: []Listener{l}}, newFeed); err == nil {
			srv.Close()
			t.Errorf("Listen accepted %+v", l)
		}
	}
}

// TestAddrKeyTransportAware: source identity must survive any
// net.Addr implementation — an address type the collector has never
// seen must still yield distinct keys for distinct sources instead of
// collapsing onto one zero-valued key (the pre-TCP readLoop bug).
func TestAddrKeyTransportAware(t *testing.T) {
	u := &net.UDPAddr{IP: net.IPv4(192, 0, 2, 7), Port: 9}
	tc := &net.TCPAddr{IP: net.IPv4(192, 0, 2, 7), Port: 9}
	uSrc, uRaw := addrKey(u)
	tSrc, tRaw := addrKey(tc)
	if uRaw != "" || tRaw != "" || uSrc != tSrc {
		t.Fatalf("UDP/TCP addrs: %v/%q vs %v/%q", uSrc, uRaw, tSrc, tRaw)
	}
	if uSrc.Port() != 9 || !uSrc.Addr().IsValid() {
		t.Fatalf("UDP addr key = %v", uSrc)
	}

	a, aRaw := addrKey(fakeAddr{"unixgram", "/run/a.sock"})
	b, bRaw := addrKey(fakeAddr{"unixgram", "/run/b.sock"})
	if aRaw == "" || bRaw == "" {
		t.Fatal("exotic addrs produced empty raw identities")
	}
	if a == b && aRaw == bRaw {
		t.Fatal("distinct exotic sources collapsed onto one key")
	}
	if _, raw := addrKey(nil); raw == "" {
		t.Fatal("nil addr collapsed onto the zero key")
	}
	// A string-parsable non-UDP/TCP addr keeps its AddrPort identity.
	if src, raw := addrKey(fakeAddr{"ip", "198.51.100.4:77"}); raw != "" || src.Port() != 77 {
		t.Fatalf("parsable addr: %v/%q", src, raw)
	}
}

type fakeAddr struct{ network, str string }

func (a fakeAddr) Network() string { return a.network }
func (a fakeAddr) String() string  { return a.str }

// FuzzStreamFramer hammers the framer with arbitrary byte streams:
// it must never panic, never return a frame that violates the IPFIX
// header invariants, never corrupt framed bytes, and only fail with
// one of its three documented error classes.
func FuzzStreamFramer(f *testing.F) {
	f.Add([]byte{})
	f.Add(streamMsg('f', 0))
	f.Add(append(streamMsg('f', 5), streamMsg('g', 0)...))
	f.Add([]byte{0, 10, 0, 16})
	f.Add([]byte{0, 9, 0, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		pool := newBufPool(1)
		consumed := 0
		for {
			buf, err := nextIPFIXMessage(r, 65535, pool)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, errFraming) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			n := len(buf)
			if n < ipfixHeaderLen || n > 65535 {
				t.Fatalf("framed length %d out of bounds", n)
			}
			if binary.BigEndian.Uint16(buf[0:2]) != ipfixStreamVersion {
				t.Fatalf("framed message with version %d", binary.BigEndian.Uint16(buf[0:2]))
			}
			if int(binary.BigEndian.Uint16(buf[2:4])) != n {
				t.Fatalf("framed %d bytes but header says %d", n, binary.BigEndian.Uint16(buf[2:4]))
			}
			if !bytes.Equal(buf[:n], data[consumed:consumed+n]) {
				t.Fatal("framer corrupted message bytes")
			}
			consumed += n
			pool.put(buf)
		}
	})
}
