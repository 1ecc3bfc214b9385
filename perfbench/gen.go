package main

// Workload generation. The seeded isp simulator's sampled emissions
// (plus, on isp-udp-saturate, background flows that miss the hitlist)
// become flow records, shuffled within each simulated hour, split
// between two exporters by line parity, and encoded as NetFlow v9 or
// IPFIX messages of 30 records. The reference oracle runs alongside:
// a detect.Engine fed every datagram's records in send order, one
// engine per hour bin, which names the datagram whose record fired
// each detection. Everything here runs before the timed region.

import (
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"time"

	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/ipfix"
	"repro/internal/isp"
	"repro/internal/netflow"
	"repro/internal/simrand"
	"repro/internal/simtime"
)

// recordsPerMessage is the exporters' message size in records.
const recordsPerMessage = 30

// threshold is the detection threshold D every detector runs at (the
// paper's conservative default).
const threshold = 0.4

// firstHourOffset places the first simulated hour at 18:00 UTC on the
// study's first day, in the ISP's evening peak.
const firstHourOffset = 18

// crec is one generated flow record in compact form: the subscriber
// line (its address is lineAddr(line)), the IPv4 service endpoint and
// the sampled packet count.
type crec struct {
	line int32
	dst  [4]byte
	port uint16
	pkts uint32
}

// dgram is one encoded wire message.
type dgram struct {
	exp  uint8  // exporter index (0 or 1)
	nrec uint8  // data records carried
	hour uint16 // index into wire.hours
	// off and end delimit the message in its exporter's slab.
	off, end int
	// due is the open-loop send time, relative to the first send.
	due time.Duration
}

// refDet is one reference detection and the index of the datagram
// carrying the record that fired it.
type refDet struct {
	sub  uint64
	rule int32
	dg   int32
}

// hourRef is one hour bin of the generated traffic and its oracle.
type hourRef struct {
	hour        simtime.Hour
	first, last int // datagram index range [first, last)
	records     int
	hits        int      // records that match the hitlist
	dets        []refDet // sorted by (sub, rule)
	subscribers int      // subscribers holding rule state at the end of the hour
}

// wire is a workload's generated traffic: the encoded messages of both
// exporters in global send order, and the per-hour reference.
type wire struct {
	protos  [2]string
	slabs   [2][]byte
	dgs     []dgram
	hours   []hourRef
	records int
}

// msg returns datagram i's bytes.
func (w *wire) msg(i int) []byte {
	d := &w.dgs[i]
	return w.slabs[d.exp][d.off:d.end]
}

// expected returns the number of reference detections across hours.
func (w *wire) expected() int {
	n := 0
	for i := range w.hours {
		n += len(w.hours[i].dets)
	}
	return n
}

// lookupDet finds (sub, rule) among an hour's sorted reference
// detections.
func (h *hourRef) lookupDet(sub uint64, rule int32) (refDet, bool) {
	i := sort.Search(len(h.dets), func(i int) bool {
		d := &h.dets[i]
		return d.sub > sub || (d.sub == sub && d.rule >= rule)
	})
	if i < len(h.dets) && h.dets[i].sub == sub && h.dets[i].rule == rule {
		return h.dets[i], true
	}
	return refDet{}, false
}

// lineAddr is a subscriber line's address in 10.0.0.0/8.
func lineAddr(line int32) [4]byte {
	return [4]byte{10, byte(line >> 16), byte(line >> 8), byte(line)}
}

// subscriberKey reproduces the detector's §2.1 anonymization of an
// IPv4 subscriber address. The oracle's equality checks against the
// detector's own output prove the replica matches.
func subscriberKey(b [4]byte) uint64 {
	x := uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
	x ^= 0x9e3779b97f4a7c15
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// appender is the encoding surface shared by both exporters.
type appender interface {
	AppendMessage(buf []byte, records []flow.Record, maxRecords int) ([]byte, int, error)
}

// backgroundPorts are the service ports background flows use.
var backgroundPorts = []uint16{443, 80, 8080, 53, 123, 993, 5228, 1935}

// genConfig sizes one generation.
type genConfig struct {
	lines      int
	background int // miss records per line per hour
	protos     [2]string
	hours      int           // closed loop: hours to generate; open loop: the most (0 = no cap)
	budget     float64       // open loop: seconds of schedule to fill
	rate       float64       // open loop: records per second (0 = closed loop)
	gap        time.Duration // open loop: idle time after each hour for its cut, longer than the cut
}

// generate builds a workload's wire traffic and oracle from seed.
func generate(lab *experiments.Lab, cfg genConfig, seed uint64) (*wire, error) {
	rng := simrand.New(seed).Fork("perfbench")
	ispCfg := isp.DefaultConfig()
	ispCfg.Lines = cfg.lines
	pop := isp.NewPopulation(rng.Fork("population"), lab.W.Catalog, ispCfg, lab.W.Window)
	shuffle := rng.Fork("shuffle")
	bg := rng.Fork("background")

	w := &wire{protos: cfg.protos}
	var exps [2]appender
	for e, p := range cfg.protos {
		switch p {
		case "netflow":
			exps[e] = netflow.NewExporter(uint32(e + 1))
		case "ipfix":
			exps[e] = ipfix.NewExporter(uint32(e + 1))
		default:
			return nil, fmt.Errorf("generate: unknown protocol %q", p)
		}
	}

	ref := detect.New(lab.Dict, threshold)
	var (
		fires []refDet
		curDg int32
	)
	ref.OnFire = func(sub detect.SubID, rule int, _ simtime.Hour) {
		fires = append(fires, refDet{sub: uint64(sub), rule: int32(rule), dg: curDg})
	}

	var (
		recs  []crec
		pend  [2][]crec
		frecs = make([]flow.Record, 0, recordsPerMessage)
		obs   = make([]detect.Obs, 0, recordsPerMessage)
		clock time.Duration
	)
	workers := runtime.GOMAXPROCS(0)
	for hi := 0; ; hi++ {
		if cfg.hours > 0 && hi >= cfg.hours {
			break
		}
		// Open loop: at least two hours (one cut window, one closing
		// window); stop once another hour would overrun the budget by
		// more than 15%.
		if cfg.rate > 0 && hi >= 2 && clock.Seconds()*float64(hi+1)/float64(hi) > cfg.budget*1.15 {
			break
		}
		h := lab.W.Window.Start + firstHourOffset + simtime.Hour(hi)
		day := h.Day()
		recs = recs[:0]
		var bad int
		pop.SimulateHourParallel(h, lab.W.ResolverOn(day), workers, func(line int32, _ detect.SubID, _ simtime.Hour, ip netip.Addr, port uint16, pkts uint64) {
			if !ip.Is4() {
				bad++
				return
			}
			recs = append(recs, crec{line: line, dst: ip.As4(), port: port, pkts: uint32(min(pkts, 0xffffffff))})
		})
		if bad > 0 {
			return nil, fmt.Errorf("generate: %d emissions to non-IPv4 endpoints", bad)
		}
		hits := 0
		for i := range recs {
			if len(lab.Dict.Lookup(day, netip.AddrFrom4(recs[i].dst), recs[i].port)) > 0 {
				hits++
			}
		}
		for line := 0; line < cfg.lines; line++ {
			for k := 0; k < cfg.background; k++ {
				recs = append(recs, backgroundRecord(lab, bg, int32(line), day))
			}
		}
		shuffle.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })

		hr := hourRef{hour: h, first: len(w.dgs), records: len(recs), hits: hits}
		fires = fires[:0]
		emit := func(e int) error {
			batch := pend[e]
			frecs = frecs[:0]
			obs = obs[:0]
			for i := range batch {
				r := &batch[i]
				src := lineAddr(r.line)
				frecs = append(frecs, flow.Record{
					Key: flow.Key{
						Src:     netip.AddrFrom4(src),
						Dst:     netip.AddrFrom4(r.dst),
						SrcPort: uint16(49152 + r.line%16000),
						DstPort: r.port,
						Proto:   flow.ProtoTCP,
					},
					Packets: uint64(r.pkts),
					Bytes:   uint64(r.pkts) * 512,
					Hour:    h,
				})
				obs = append(obs, detect.Obs{
					Sub: detect.SubID(subscriberKey(src)), Hour: h,
					IP: netip.AddrFrom4(r.dst), Port: r.port, Pkts: uint64(r.pkts),
				})
			}
			off := len(w.slabs[e])
			var (
				n   int
				err error
			)
			w.slabs[e], n, err = exps[e].AppendMessage(w.slabs[e], frecs, recordsPerMessage)
			if err != nil {
				return fmt.Errorf("generate: encode: %w", err)
			}
			if n != len(frecs) {
				return fmt.Errorf("generate: encoder took %d of %d records", n, len(frecs))
			}
			curDg = int32(len(w.dgs))
			w.dgs = append(w.dgs, dgram{exp: uint8(e), nrec: uint8(n), hour: uint16(hi), off: off, end: len(w.slabs[e]), due: clock})
			if cfg.rate > 0 {
				clock += time.Duration(float64(n) / cfg.rate * float64(time.Second))
			}
			ref.ObserveBatch(obs)
			pend[e] = pend[e][:0]
			return nil
		}
		for i := range recs {
			e := recs[i].line & 1
			pend[e] = append(pend[e], recs[i])
			if len(pend[e]) == recordsPerMessage {
				if err := emit(int(e)); err != nil {
					return nil, err
				}
			}
		}
		for e := range pend {
			if len(pend[e]) > 0 {
				if err := emit(e); err != nil {
					return nil, err
				}
			}
		}
		hr.last = len(w.dgs)
		hr.dets = append([]refDet(nil), fires...)
		sort.Slice(hr.dets, func(i, j int) bool {
			a, b := &hr.dets[i], &hr.dets[j]
			return a.sub < b.sub || (a.sub == b.sub && a.rule < b.rule)
		})
		hr.subscribers = ref.Subscribers()
		ref.Reset()
		w.hours = append(w.hours, hr)
		w.records += len(recs)
		clock += cfg.gap
	}
	return w, nil
}

// backgroundRecord draws one flow from a line to a random public IPv4
// endpoint that the dictionary does not list on the day, so it is a
// guaranteed hitlist miss.
func backgroundRecord(lab *experiments.Lab, rng *simrand.RNG, line int32, day simtime.Day) crec {
	for {
		v := rng.Uint64()
		dst := [4]byte{byte(11 + v%212), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
		port := backgroundPorts[(v>>32)%uint64(len(backgroundPorts))]
		if len(lab.Dict.Lookup(day, netip.AddrFrom4(dst), port)) == 0 {
			return crec{line: line, dst: dst, port: port, pkts: uint32(1 + (v>>40)%3)}
		}
	}
}
