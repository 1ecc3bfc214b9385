package collector

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubFeed records what the server drives into it. Marker byte: the
// third byte of each datagram identifies the sending source, so tests
// can assert sticky routing without real wire decoding.
type stubFeed struct {
	nf, ix  atomic.Uint64
	delay   time.Duration
	mu      sync.Mutex
	markers map[byte]int
	closed  atomic.Bool
}

func (f *stubFeed) record(m []byte) {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if len(m) >= 3 {
		f.mu.Lock()
		if f.markers == nil {
			f.markers = map[byte]int{}
		}
		f.markers[m[2]]++
		f.mu.Unlock()
	}
}

func (f *stubFeed) FeedNetFlow(m []byte) error { f.record(m); f.nf.Add(1); return nil }
func (f *stubFeed) FeedIPFIX(m []byte) error   { f.record(m); f.ix.Add(1); return nil }
func (f *stubFeed) Stats() FeedStats {
	return FeedStats{Records: f.nf.Load() + f.ix.Load()}
}
func (f *stubFeed) Close() { f.closed.Store(true) }

func (f *stubFeed) markerSet() map[byte]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[byte]int, len(f.markers))
	for k, v := range f.markers {
		out[k] = v
	}
	return out
}

func TestParseListener(t *testing.T) {
	for _, tc := range []struct {
		in    string
		addr  string
		proto Proto
		bad   bool
	}{
		{in: "127.0.0.1:2055", addr: "127.0.0.1:2055", proto: ProtoAuto},
		{in: "netflow@:2055", addr: ":2055", proto: ProtoNetFlow},
		{in: "ipfix@[::1]:4739", addr: "[::1]:4739", proto: ProtoIPFIX},
		{in: "auto@:9995", addr: ":9995", proto: ProtoAuto},
		{in: "sflow@:6343", bad: true},
		{in: "", bad: true},
		{in: "netflow@", bad: true},
	} {
		l, err := ParseListener(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseListener(%q) accepted", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseListener(%q): %v", tc.in, err)
			continue
		}
		if l.Addr != tc.addr || l.Proto != tc.proto {
			t.Errorf("ParseListener(%q) = %+v", tc.in, l)
		}
	}
}

func TestSniff(t *testing.T) {
	if got := sniff([]byte{0, 9, 0, 0}); got != ProtoNetFlow {
		t.Errorf("version 9 sniffed as %v", got)
	}
	if got := sniff([]byte{0, 10, 0, 0}); got != ProtoIPFIX {
		t.Errorf("version 10 sniffed as %v", got)
	}
	for _, b := range [][]byte{nil, {0}, {0, 5, 0, 0}, {0xff, 0xff}} {
		if got := sniff(b); got != ProtoAuto {
			t.Errorf("sniff(%v) = %v, want unrecognized", b, got)
		}
	}
}

// startStubServer binds one auto-sniffing loopback socket over stub
// feeds and returns the server, its address, and the feeds created.
func startStubServer(t *testing.T, cfg Config) (*Server, net.Addr, *[]*stubFeed) {
	t.Helper()
	cfg.Listeners = []Listener{{Addr: "127.0.0.1:0"}}
	feeds := &[]*stubFeed{}
	var mu sync.Mutex
	srv, err := Listen(cfg, func() Feed {
		f := &stubFeed{}
		mu.Lock()
		*feeds = append(*feeds, f)
		mu.Unlock()
		return f
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addrs()[0], feeds
}

// send opens a fresh UDP source (distinct local port) and sends n
// datagrams carrying the version and marker bytes.
func send(t *testing.T, to net.Addr, version byte, marker byte, n int) {
	t.Helper()
	conn, err := net.Dial("udp", to.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte{0, version, marker, 0}
	for i := 0; i < n; i++ {
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		if i%32 == 31 {
			time.Sleep(time.Millisecond) // pace loopback bursts
		}
	}
}

func waitDatagrams(t *testing.T, srv *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Datagrams < want {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d datagrams", srv.Stats().Datagrams, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerStickyRouting: three sources over one auto socket, three
// active feeds — every source's datagrams must land on exactly one
// feed, NetFlow and IPFIX must reach the right decoder entry point,
// and the metrics must account for every datagram.
func TestServerStickyRouting(t *testing.T) {
	srv, addr, feeds := startStubServer(t, Config{MaxFeeds: 3, MinFeeds: 3, QueueLen: 1024})

	const per = 100
	send(t, addr, 9, 'a', per)  // NetFlow source
	send(t, addr, 9, 'b', per)  // NetFlow source
	send(t, addr, 10, 'c', per) // IPFIX source
	waitDatagrams(t, srv, 3*per)
	srv.Sync()

	st := srv.Stats()
	if st.StartedFeeds != 3 {
		t.Fatalf("started feeds = %d, want 3 (one per source)", st.StartedFeeds)
	}
	if st.DroppedDatagrams != 0 || st.DecodeErrors != 0 {
		t.Fatalf("drops=%d errors=%d on a clean run", st.DroppedDatagrams, st.DecodeErrors)
	}

	var nf, ix uint64
	for _, f := range *feeds {
		ms := f.markerSet()
		if len(ms) != 1 {
			t.Fatalf("feed saw markers %v — source assignment is not sticky", ms)
		}
		for m, n := range ms {
			if n != per {
				t.Fatalf("marker %c: %d datagrams, want %d", m, n, per)
			}
		}
		nf += f.nf.Load()
		ix += f.ix.Load()
	}
	if nf != 2*per || ix != per {
		t.Fatalf("sniffed %d netflow + %d ipfix, want %d + %d", nf, ix, 2*per, per)
	}
}

// TestServerCloseDrainsQueues: a slow feed accumulates a backlog;
// Close must decode every received datagram before returning, then
// close the feed, and leave no goroutines behind.
func TestServerCloseDrainsQueues(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg := Config{MaxFeeds: 1, QueueLen: 4096}
	feeds := &[]*stubFeed{}
	var mu sync.Mutex
	cfg.Listeners = []Listener{{Addr: "127.0.0.1:0"}}
	srv, err := Listen(cfg, func() Feed {
		f := &stubFeed{delay: 200 * time.Microsecond}
		mu.Lock()
		*feeds = append(*feeds, f)
		mu.Unlock()
		return f
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 500
	send(t, srv.Addrs()[0], 9, 'x', n)
	waitDatagrams(t, srv, n) // received and enqueued, mostly not yet decoded
	srv.Close()

	if got := (*feeds)[0].nf.Load(); got != n {
		t.Fatalf("Close drained %d of %d queued datagrams", got, n)
	}
	if !(*feeds)[0].closed.Load() {
		t.Fatal("feed not closed on shutdown")
	}
	st := srv.Stats()
	if st.Feeds[0].Datagrams != n || st.Feeds[0].QueueDepth != 0 {
		t.Fatalf("post-close snapshot: %+v", st.Feeds[0])
	}

	// Every server goroutine (readers, worker, control loop) must be
	// gone. Allow the runtime a moment to retire them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerSyncCoversEnqueued: Sync returns only after everything
// enqueued before the call has been decoded.
func TestServerSyncCoversEnqueued(t *testing.T) {
	srv, addr, feeds := startStubServer(t, Config{MaxFeeds: 1, QueueLen: 4096})
	const n = 300
	send(t, addr, 10, 's', n)
	waitDatagrams(t, srv, n)
	srv.Sync()
	if got := (*feeds)[0].ix.Load(); got != n {
		t.Fatalf("Sync returned with %d of %d datagrams decoded", got, n)
	}
}

// TestServerCountsDecodeErrors: datagrams matching neither protocol
// version on an auto socket are counted, not fatal.
func TestServerCountsDecodeErrors(t *testing.T) {
	srv, addr, _ := startStubServer(t, Config{MaxFeeds: 1})
	send(t, addr, 5, 'z', 10) // version 5 — sniff fails
	waitDatagrams(t, srv, 10)
	srv.Sync()
	if st := srv.Stats(); st.DecodeErrors != 10 {
		t.Fatalf("decode errors = %d, want 10", st.DecodeErrors)
	}
}

// TestServerAdaptiveFanIn: with a tiny per-feed rate budget, a burst
// from one source must raise the fan-in target so the next source
// lands on a second feed.
func TestServerAdaptiveFanIn(t *testing.T) {
	srv, addr, _ := startStubServer(t, Config{
		MaxFeeds:    4,
		QueueLen:    4096,
		RatePerFeed: 1, // any observable rate overflows one feed
		Tick:        5 * time.Millisecond,
	})

	send(t, addr, 9, 'p', 200)
	waitDatagrams(t, srv, 200)
	srv.Sync()

	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ActiveFeeds < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("fan-in target stuck at %d under load (ewma %.1f)",
				srv.Stats().ActiveFeeds, srv.Stats().RateEWMA)
		}
		time.Sleep(time.Millisecond)
	}

	send(t, addr, 9, 'q', 10) // new source → must open a second feed
	waitDatagrams(t, srv, 210)
	srv.Sync()
	if st := srv.Stats(); st.StartedFeeds < 2 {
		t.Fatalf("new source stayed on the saturated feed: %+v", st)
	}
}

// TestListenConfigErrors: bad configs fail fast.
func TestListenConfigErrors(t *testing.T) {
	if _, err := Listen(Config{}, func() Feed { return &stubFeed{} }); err == nil {
		t.Error("no listeners accepted")
	}
	if _, err := Listen(Config{Listeners: []Listener{{Addr: "127.0.0.1:0"}}}, nil); err == nil {
		t.Error("nil feed constructor accepted")
	}
	if _, err := Listen(Config{Listeners: []Listener{{Addr: "not-an-address"}}},
		func() Feed { return &stubFeed{} }); err == nil {
		t.Error("unparseable address accepted")
	}
}

// A message buffer is sized to its message's power-of-two class, not
// to MaxDatagram, and recycles only within its class.
func TestBufPoolSizeClasses(t *testing.T) {
	p := newBufPool(4)
	for _, tc := range []struct{ n, cap int }{
		{16, 2048}, {1200, 2048}, {2048, 2048}, {2049, 4096}, {9000, 16384}, {65535, 65536}, {70000, 70000},
	} {
		b := p.get(tc.n)
		if len(b) != tc.n || cap(b) != tc.cap {
			t.Errorf("get(%d): len %d cap %d, want cap %d", tc.n, len(b), cap(b), tc.cap)
		}
		p.put(b)
	}
	b := p.get(1200)
	b[0] = 'x'
	p.put(b)
	if again := p.get(100); cap(again) != 2048 || again[0] != 'x' {
		t.Errorf("2 KiB buffer was not recycled within its class")
	}
	if big := p.get(3000); cap(big) != 4096 {
		t.Errorf("get(3000) cap %d, want a 4 KiB class buffer", cap(big))
	}
	p.put(make([]byte, 3000)) // not a class size: dropped, never handed out
	for i := 0; i < 8; i++ {
		if c := cap(p.get(3000)); c != 4096 {
			t.Fatalf("get(3000) returned a %d-byte buffer", c)
		}
	}
}

// A datagram crossing the socket keeps its exact bytes after the copy
// out of the read loop's scratch buffer, for sizes on both sides of a
// class boundary.
func TestServerCopiesDatagramsExactly(t *testing.T) {
	var (
		mu   sync.Mutex
		seen [][]byte
	)
	feed := &copyFeed{fn: func(m []byte) {
		mu.Lock()
		seen = append(seen, append([]byte(nil), m...))
		mu.Unlock()
	}}
	srv, err := Listen(Config{Listeners: []Listener{{Addr: "127.0.0.1:0", Proto: ProtoNetFlow}}}, func() Feed { return feed })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("udp", srv.Addrs()[0].String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sizes := []int{3, 2047, 2048, 2049, 9000}
	for i, n := range sizes {
		msg := make([]byte, n)
		for j := range msg {
			msg[j] = byte(i + j)
		}
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			srv.Sync()
			mu.Lock()
			got := len(seen)
			mu.Unlock()
			if got > i {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("datagram %d (%d bytes) never arrived", i, n)
			}
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		if !bytes.Equal(seen[i], msg) {
			t.Errorf("datagram of %d bytes arrived as %d different bytes", n, len(seen[i]))
		}
		mu.Unlock()
	}
}

// copyFeed hands every message to fn.
type copyFeed struct{ fn func([]byte) }

func (f *copyFeed) FeedNetFlow(m []byte) error { f.fn(m); return nil }
func (f *copyFeed) FeedIPFIX(m []byte) error   { f.fn(m); return nil }
func (f *copyFeed) Stats() FeedStats           { return FeedStats{} }
func (f *copyFeed) Close()                     {}
