package collector

// TCP stream transport for IPFIX (RFC 7011 §10.4). A stream has no
// datagram boundaries, so messages are framed by the 16-bit Length
// field at offset 2 of the IPFIX message header — the whole reason
// the RFC requires that field. NetFlow v9 carries no length and
// cannot ride a stream; Listener.validate rejects the combination.
//
// Identity model: one connection is one exporter source. The
// connection's sourceKey carries a serial number, so a reconnecting
// exporter (same remote host, even the same ephemeral port) gets a
// fresh Feed — template caches and sequence anchors live exactly as
// long as the connection and are torn down when it closes, via a
// closeSource control message drained through the owning lane (so
// teardown is ordered after every message the connection delivered).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"time"
)

// ipfixStreamVersion and ipfixHeaderLen pin the framing constants
// from RFC 7011 §3.1: every message starts 〈version=10, length〉 and
// the length covers the 16-byte header itself.
const (
	ipfixStreamVersion = 10
	ipfixHeaderLen     = 16
)

// errFraming marks a stream that has lost (or never had) IPFIX
// message alignment. Framing errors are unrecoverable — there is no
// way to resynchronize a length-delimited stream — so the connection
// is closed and the exporter is expected to reconnect.
var errFraming = errors.New("collector: IPFIX stream framing error")

// streamListener is one bound TCP listener.
type streamListener struct {
	idx int // index into Config.Listeners, for Addrs
	ln  net.Listener
}

// nextIPFIXMessage frames one IPFIX message (at most maxMsg ≥
// ipfixHeaderLen bytes) out of r into a buffer from pool sized by the
// header's Length field, and returns it; the caller puts it back.
// Errors are either errFraming (stream desynced: wrong version,
// undersized or oversized length), io.EOF (clean close between
// messages), or the transport error that interrupted the read
// (io.ErrUnexpectedEOF for a stream truncated mid-message).
func nextIPFIXMessage(r io.Reader, maxMsg int, pool *bufPool) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			// 1-3 bytes then EOF: a truncated header is a framing
			// problem, not a clean close.
			return nil, fmt.Errorf("%w: truncated message header", errFraming)
		}
		return nil, err
	}
	if v := binary.BigEndian.Uint16(hdr[0:2]); v != ipfixStreamVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", errFraming, v, ipfixStreamVersion)
	}
	n := int(binary.BigEndian.Uint16(hdr[2:4]))
	if n < ipfixHeaderLen || n > maxMsg {
		return nil, fmt.Errorf("%w: message length %d (want %d..%d)", errFraming, n, ipfixHeaderLen, maxMsg)
	}
	buf := pool.get(n)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		pool.put(buf)
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// acceptLoop owns one TCP listener: accept, count, hand the
// connection its own read loop. Accept errors are survived (paced)
// until shutdown, mirroring readLoop's posture.
func (s *Server) acceptLoop(sl *streamListener) {
	defer s.readers.Done()
	for {
		c, err := sl.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // shutdown
			}
			select {
			case <-s.done:
				return
			default:
			}
			s.readErrors.Add(1)
			time.Sleep(time.Millisecond)
			continue
		}
		if max := s.cfg.MaxConns; max > 0 && s.streamConns.Load() >= int64(max) {
			// Over the connection budget: refuse outright (counted)
			// instead of letting an open-socket flood grow goroutines
			// and decoder state without bound.
			s.rejectedConns.Add(1)
			c.Close()
			continue
		}
		s.acceptedConns.Add(1)
		s.streamConns.Add(1)
		s.connMu.Lock()
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		// Close may have snapshotted s.conns between Accept and the
		// registration above, in which case nobody would ever close
		// this connection and a still-sending exporter could keep its
		// read loop alive past shutdown. Re-checking done after
		// registering closes the race: either Close saw the conn, or
		// we see done (closing twice is harmless).
		select {
		case <-s.done:
			c.Close()
		default:
		}
		s.readers.Add(1)
		go s.connLoop(sl, c)
	}
}

// connLoop is the per-connection hot path: frame messages off the
// stream, route them to the source's sticky lane, and tear the
// source down when the connection ends. Like readLoop it never
// decodes and never blocks on a feed.
func (s *Server) connLoop(sl *streamListener, c net.Conn) {
	defer s.readers.Done()
	key := sourceKey{sock: sl.idx, conn: s.connSerial.Add(1)}
	key.src, key.raw = addrKey(c.RemoteAddr())
	maxMsg := s.cfg.MaxDatagram
	if maxMsg > 0xffff {
		maxMsg = 0xffff // an IPFIX length field cannot say more
	}

	var w *worker // assigned on the first well-framed message
	for {
		if s.cfg.IdleTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		buf, err := nextIPFIXMessage(c, maxMsg, s.bufs)
		if err != nil {
			if errors.Is(err, errFraming) {
				s.framingErrors.Add(1)
			} else if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!errors.Is(err, net.ErrClosed) &&
				!errors.Is(err, os.ErrDeadlineExceeded) && !errors.Is(err, syscall.ECONNRESET) {
				// The connection is done either way. A clean close, a
				// disconnect mid-message (an exporter killed between
				// writes), a shutdown race, an idle-deadline reap
				// (that is the reaper working, not an error), and a
				// peer reset (routine exporter churn) are all
				// expected; only genuinely unexpected transport
				// errors — the class docs/OPERATIONS.md tells
				// operators to page on — count.
				select {
				case <-s.done:
				default:
					s.readErrors.Add(1)
				}
			}
			break
		}
		n := len(buf)
		if w == nil {
			w = s.workerFor(key)
		}
		select {
		case w.ch <- datagram{buf: buf, proto: ProtoIPFIX, src: key}:
			w.enqueued.Add(1)
		default:
			// Full queue: drop visibly, exactly like the UDP path —
			// blocking here would let one slow lane stall the stream
			// into a TCP zero-window and back up the exporter.
			w.dropped.Add(1)
			s.dropped.Add(1)
			s.bufs.put(buf)
		}
		// Counted after the enqueue attempt: anyone who has seen
		// stream_messages reach N may rely on all N being enqueued
		// (or dropped), so Stats-gated Sync calls cover them.
		s.streamMsgs.Add(1)
		s.streamBytes.Add(uint64(n))
	}

	c.Close()
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	s.streamConns.Add(-1)
	if w != nil {
		// Tear down the connection's feed *after* everything it
		// enqueued: the control message rides the same lane queue.
		// Blocking is safe — the lane drains continuously, and at
		// shutdown its channel closes only after readers.Wait (which
		// includes this goroutine).
		w.ch <- datagram{src: key, closeSource: true}
		w.enqueued.Add(1)
	}
}
