package haystack

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/flow"
	"repro/internal/ipfix"
	"repro/internal/simtime"
)

// TestQuietExporterDetectionDelivered: an exporter that sends one
// message and then falls silent still gets its detection delivered
// promptly. Its lane hands the feed's buffered observations on as
// soon as its queue drains, with no Sync, RotateNow or Close, and
// over TCP the connection stays open, so teardown cannot flush either.
func TestQuietExporterDetectionDelivered(t *testing.T) {
	s := sharedSystem(t)
	h := simtime.HourOf(s.StudyStart()) + 9
	rec := merossRecord(t, s, netip.MustParseAddr("100.64.9.9"), h)
	for _, tc := range []struct {
		name     string
		listener collector.Listener
		msgs     [][]byte
	}{
		{"udp", collector.Listener{Addr: "127.0.0.1:0", Net: "udp"}, merossMsgs(t, s, rec.Key.Src, h, 1)},
		{"tcp", collector.Listener{Addr: "127.0.0.1:0", Proto: collector.ProtoIPFIX, Net: "tcp"}, ipfixMsgs(t, rec)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			det := s.NewShardedDetector(0.4, 4)
			defer det.Close()
			srv, err := det.Listen(ListenConfig{Config: collector.Config{Listeners: []collector.Listener{tc.listener}}})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			events, cancel := det.Subscribe()
			defer cancel()

			conn, err := net.Dial(tc.listener.Net, srv.Addrs()[0].String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close() // only after the event: the exporter stays connected
			sent := time.Now()
			for _, m := range tc.msgs {
				if _, err := conn.Write(m); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case ev := <-events:
				if ev.Rule != "Meross Dooropener" || !ev.First.Equal(h.Time()) {
					t.Fatalf("event %+v, want Meross Dooropener at %v", ev, h.Time())
				}
				t.Logf("delivered %v after the send", time.Since(sent))
			case <-time.After(2 * time.Second):
				t.Fatalf("no detection within 2s of a quiet exporter's message (%+v)", srv.Stats())
			}
		})
	}
}

// ipfixMsgs exports records as IPFIX messages from one exporter.
func ipfixMsgs(t *testing.T, recs ...flow.Record) [][]byte {
	t.Helper()
	msgs, err := ipfix.NewExporter(1).Export(recs, 30)
	if err != nil {
		t.Fatal(err)
	}
	return msgs
}
