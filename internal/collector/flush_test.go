package collector

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/flow"
)

// gatedFeed is a batch feed whose decodes wait until gate is closed,
// so a test can hold a lane busy while a backlog queues behind it. It
// counts decodes and flushes and notes any flush after Close.
type gatedFeed struct {
	gate        chan struct{}
	decodes     atomic.Int64
	flushes     atomic.Int64
	perRecord   atomic.Int64 // FeedNetFlow/FeedIPFIX calls: must stay 0
	closed      atomic.Bool
	lateFlushes atomic.Int64 // flushes after Close
}

func (f *gatedFeed) decode() error {
	<-f.gate
	f.decodes.Add(1)
	return nil
}

func (f *gatedFeed) FeedNetFlowBatch([]byte, *flow.Batch) error { return f.decode() }
func (f *gatedFeed) FeedIPFIXBatch([]byte, *flow.Batch) error   { return f.decode() }
func (f *gatedFeed) FeedNetFlow([]byte) error                   { f.perRecord.Add(1); return nil }
func (f *gatedFeed) FeedIPFIX([]byte) error                     { f.perRecord.Add(1); return nil }
func (f *gatedFeed) Stats() FeedStats                           { return FeedStats{} }
func (f *gatedFeed) Close()                                     { f.closed.Store(true) }

func (f *gatedFeed) Flush() {
	if f.closed.Load() {
		f.lateFlushes.Add(1)
	}
	f.flushes.Add(1)
}

// startGatedServer runs a one-lane server over gatedFeeds sharing one
// gate. The returned function lists the feeds created so far.
func startGatedServer(t *testing.T, l Listener, gate chan struct{}) (*Server, func() []*gatedFeed) {
	t.Helper()
	var (
		mu    sync.Mutex
		feeds []*gatedFeed
	)
	srv, err := Listen(Config{Listeners: []Listener{l}, QueueLen: 256}, func() Feed {
		f := &gatedFeed{gate: gate}
		mu.Lock()
		feeds = append(feeds, f)
		mu.Unlock()
		return f
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, func() []*gatedFeed {
		mu.Lock()
		defer mu.Unlock()
		return append([]*gatedFeed(nil), feeds...)
	}
}

// TestLaneFlushesOncePerDrain: a backlog queued behind a blocked
// decode is decoded back to back and flushed once, when the queue
// runs empty — not once per datagram.
func TestLaneFlushesOncePerDrain(t *testing.T) {
	gate := make(chan struct{})
	srv, feeds := startGatedServer(t, Listener{Addr: "127.0.0.1:0"}, gate)
	const n = 40
	send(t, srv.Addrs()[0], 9, 1, n)
	lane := srv.workers[0]
	waitFor(t, "the backlog to queue", func() bool { return lane.enqueued.Load() == n })
	close(gate)
	srv.Close() // drains the lane and joins it, so the counts are final

	fs := feeds()
	if len(fs) != 1 {
		t.Fatalf("%d feeds, want 1", len(fs))
	}
	f := fs[0]
	if got := f.decodes.Load(); got != n {
		t.Fatalf("%d decodes, want %d", got, n)
	}
	if got := f.flushes.Load(); got != 1 {
		t.Fatalf("%d flushes for a drained backlog of %d, want 1", got, n)
	}
	if got := f.perRecord.Load(); got != 0 {
		t.Fatalf("a batch feed took %d calls on the per-message path", got)
	}
}

// TestLaneFlushesEveryFedFeed: when one lane carries two sources, the
// drain flushes both feeds.
func TestLaneFlushesEveryFedFeed(t *testing.T) {
	gate := make(chan struct{})
	srv, feeds := startGatedServer(t, Listener{Addr: "127.0.0.1:0"}, gate)
	send(t, srv.Addrs()[0], 9, 1, 1)
	send(t, srv.Addrs()[0], 10, 2, 1) // a second source: fresh local port
	lane := srv.workers[0]
	waitFor(t, "both datagrams to queue", func() bool { return lane.enqueued.Load() == 2 })
	close(gate)
	srv.Close()

	fs := feeds()
	if len(fs) != 2 {
		t.Fatalf("%d feeds, want one per source", len(fs))
	}
	for i, f := range fs {
		if f.decodes.Load() != 1 || f.flushes.Load() != 1 {
			t.Errorf("feed %d: %d decodes, %d flushes; want 1 and 1", i, f.decodes.Load(), f.flushes.Load())
		}
	}
}

// TestLaneNeverFlushesClosedSource: a stream source that disconnects
// right after its message leaves the fed list at teardown, so the
// drain that follows never flushes its closed feed.
func TestLaneNeverFlushesClosedSource(t *testing.T) {
	gate := make(chan struct{})
	srv, feeds := startGatedServer(t, Listener{Addr: "127.0.0.1:0", Proto: ProtoIPFIX, Net: "tcp"}, gate)
	c, err := net.Dial("tcp", srv.Addrs()[0].String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(streamMsg(1, 8)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	lane := srv.workers[0]
	// The message, then the disconnect's control message.
	waitFor(t, "message and teardown to queue", func() bool { return lane.enqueued.Load() == 2 })
	close(gate)
	waitFor(t, "teardown", func() bool { return lane.controls.Load() == 1 })
	srv.Close()

	fs := feeds()
	if len(fs) != 1 {
		t.Fatalf("%d feeds, want 1", len(fs))
	}
	f := fs[0]
	if f.decodes.Load() != 1 || !f.closed.Load() {
		t.Fatalf("decodes %d, closed %v; want 1 decode and a closed feed", f.decodes.Load(), f.closed.Load())
	}
	if got := f.lateFlushes.Load(); got != 0 {
		t.Fatalf("closed feed flushed %d times after teardown", got)
	}
	if got := f.flushes.Load(); got != 0 {
		t.Fatalf("feed flushed %d times; its teardown was queued behind its only message", got)
	}
}
