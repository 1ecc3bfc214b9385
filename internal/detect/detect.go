// Package detect implements the streaming detection engine that applies
// the compiled IoT dictionary to sampled flow records (§5–§6).
//
// The engine is keyed by an opaque subscriber identifier — an
// anonymized subscriber-line hash at the ISP, a source address hash at
// the IXP — and tracks, per (subscriber, rule), which monitored domains
// have been evidenced. A rule fires once the §4.3.2 evidence
// requirement max(1, ⌊D·N⌋) is met, subject to the rule hierarchy
// (Samsung TV requires Samsung IoT confirmed first).
//
// Aggregation windows are the caller's concern: run one engine per
// hour/day/fortnight and Reset between bins, exactly like the paper's
// hourly and daily summaries.
package detect

import (
	"math"
	"math/bits"
	"net/netip"

	"repro/internal/rules"
	"repro/internal/simrand"
	"repro/internal/simtime"
)

// SubID is an opaque subscriber identifier.
type SubID uint64

// bitset covers up to 128 monitored domains per rule (Fire TV needs 67).
type bitset [2]uint64

func (b *bitset) set(i int) { b[i>>6] |= 1 << (i & 63) }

func (b *bitset) count() int {
	return bits.OnesCount64(b[0]) + bits.OnesCount64(b[1])
}

// ruleState is per-(subscriber, rule) evidence: 40 bytes and no
// pointers, so the garbage collector never scans the slab holding it.
// A subscriber's states form a chain through the slab, newest first.
type ruleState struct {
	bits      bitset
	pkts      uint64       // sampled packets attributed to the rule
	firstHour simtime.Hour // hour the rule fired (valid once detected)
	next      uint32       // slab index of the chain's next state; noState ends it
	rule      uint16
	detected  bool
}

// slot is one entry of the open-addressing subscriber table.
type slot struct {
	sub  SubID
	head uint32 // slab index of the subscriber's newest rule state
	// n counts the states chained from head. Every tracked subscriber
	// holds at least one, so n == 0 marks a free slot and SubID 0
	// needs no sentinel.
	n uint32
}

const (
	// noState terminates a chain. It is above every valid slab index,
	// so a bounds check on the slab also ends the walk.
	noState = math.MaxUint32
	// minSlots is the table size at a window's first subscriber.
	minSlots = 16
	// maxRules is what ruleState.rule can name.
	maxRules = math.MaxUint16 + 1
)

// Engine applies a dictionary at a fixed detection threshold.
// Not safe for concurrent use; shard subscribers across engines for
// parallel processing.
type Engine struct {
	dict *rules.Dictionary
	// D is the detection threshold of §4.3.2.
	D       float64
	minDoms []int
	// children lists, per rule, the rules gated on it by RequireParent,
	// in index order.
	children [][]int

	// slots is the subscriber table: a power-of-two array probed
	// linearly from the top bits of the subscriber's Mix64 hash. The
	// pipeline shards by that hash modulo the shard count, so within a
	// shard its low bits are correlated; the top bits are not. Nil
	// until the window's first subscriber.
	slots []slot
	shift uint // 64 - log2(len(slots)); 64 while slots is nil
	used  int  // occupied slots
	// slab holds every (subscriber, rule) state of the window.
	slab []ruleState

	// detections counts currently-detected subscribers per rule.
	detections []int

	// OnFire, when non-nil, is called synchronously at the moment a
	// rule crosses its evidence threshold for a subscriber — exactly
	// once per (subscriber, rule) per aggregation bin, including rules
	// released transitively by a newly-confirmed parent. It fires in
	// addition to (and in the same order as) Observe's returned slice.
	// The callback runs inside Observe and must not call back into the
	// engine; hand the event to a queue for anything heavier than a
	// counter.
	OnFire func(sub SubID, rule int, h simtime.Hour)
}

// New returns an engine with detection threshold d. The paper's
// conservative default is 0.4.
func New(dict *rules.Dictionary, d float64) *Engine {
	if len(dict.Rules) > maxRules {
		panic("detect: dictionary has more rules than the engine can index")
	}
	e := &Engine{dict: dict, D: d}
	e.minDoms = make([]int, len(dict.Rules))
	e.children = make([][]int, len(dict.Rules))
	for i := range dict.Rules {
		r := &dict.Rules[i]
		e.minDoms[i] = r.MinDomains(d)
		if r.RequireParent && r.Parent >= 0 {
			e.children[r.Parent] = append(e.children[r.Parent], i)
		}
	}
	e.Reset()
	return e
}

// Reset clears all subscriber state (start of a new aggregation bin).
// It releases the table and the slab rather than keeping their
// capacity: a quiet window must not hold the memory of a busy one.
func (e *Engine) Reset() {
	e.slots, e.slab, e.used, e.shift = nil, nil, 0, 64
	e.detections = make([]int, len(e.dict.Rules))
}

// Dictionary returns the engine's dictionary.
func (e *Engine) Dictionary() *rules.Dictionary { return e.dict }

// probe returns the index of sub's slot and true, or the index of the
// free slot where sub belongs and false. The table is never full, so
// the walk ends; on an empty table it returns (0, false).
//
// haystack:hotpath — runs once per subscriber run and per point query.
func (e *Engine) probe(sub SubID) (uint, bool) {
	slots := e.slots
	mask := uint(len(slots)) - 1
	for i := uint(simrand.Mix64(uint64(sub)) >> e.shift); i < uint(len(slots)); i = (i + 1) & mask {
		if slots[i].n == 0 {
			return i, false
		}
		if slots[i].sub == sub {
			return i, true
		}
	}
	return 0, false
}

// chainFind returns the slab index of rule's state in the chain that
// starts at head, or -1.
//
// haystack:hotpath — runs once per (observation, target).
func (e *Engine) chainFind(head uint32, rule int) int {
	slab := e.slab
	for j := int(head); j < len(slab); j = int(slab[j].next) {
		if int(slab[j].rule) == rule {
			return j
		}
	}
	return -1
}

// stateIn returns the slab index of rule's state for the subscriber in
// slot si, chaining a fresh state when the subscriber has none.
//
// haystack:hotpath — runs once per (observation, target).
func (e *Engine) stateIn(si uint, rule int) int {
	if si >= uint(len(e.slots)) {
		panic("detect: slot index out of range")
	}
	s := &e.slots[si]
	if j := e.chainFind(s.head, rule); j >= 0 {
		return j
	}
	j := len(e.slab)
	if j >= noState {
		panic("detect: rule-state slab exceeds 2^32-1 entries")
	}
	e.slab = append(e.slab, ruleState{rule: uint16(rule), next: s.head})
	s.head = uint32(j)
	s.n++
	return j
}

// track returns sub's slot index, inserting the subscriber when it is
// new. The caller must chain a state onto a new subscriber (stateIn)
// before probing again: a slot without states reads as free.
func (e *Engine) track(sub SubID) uint {
	si, ok := e.probe(sub)
	if ok {
		return si
	}
	if 4*(e.used+1) > 3*len(e.slots) {
		e.grow()
		si, _ = e.probe(sub)
	}
	e.slots[si] = slot{sub: sub, head: noState}
	e.used++
	return si
}

// grow doubles the subscriber table (or allocates the first one) and
// re-inserts every subscriber.
func (e *Engine) grow() {
	old := e.slots
	n := max(minSlots, 2*len(old))
	e.slots = make([]slot, n)
	e.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for i := range old {
		if old[i].n != 0 {
			si, _ := e.probe(old[i].sub)
			e.slots[si] = old[i]
		}
	}
}

// lookup returns (sub, rule)'s state, or nil when it has none.
func (e *Engine) lookup(sub SubID, rule int) *ruleState {
	si, ok := e.probe(sub)
	if !ok {
		return nil
	}
	j := e.chainFind(e.slots[si].head, rule)
	if j < 0 {
		return nil
	}
	return &e.slab[j]
}

// Observe feeds one sampled flow observation: subscriber sub exchanged
// pkts sampled packets with service endpoint (ip, port) during hour h.
// Returns the rules that newly fired on this observation.
func (e *Engine) Observe(sub SubID, h simtime.Hour, ip netip.Addr, port uint16, pkts uint64) []int {
	targets := e.dict.Lookup(h.Day(), ip, port)
	if len(targets) == 0 {
		return nil
	}
	si := e.track(sub)
	var fired []int
	for _, t := range targets {
		e.apply(sub, si, t, h, pkts, &fired)
	}
	return fired
}

// Obs is one sampled flow observation: subscriber Sub exchanged Pkts
// sampled packets with service endpoint (IP, Port) during Hour. It is
// the element type of the batch observe path (internal/pipeline
// aliases it), laid out once here so batches cross the pipeline
// boundary without conversion.
type Obs struct {
	Sub  SubID
	Hour simtime.Hour
	IP   netip.Addr
	Port uint16
	Pkts uint64
}

// ObserveBatch feeds a batch of observations. It is semantically
// identical to calling Observe for each element in order — OnFire
// fires for exactly the same (subscriber, rule, hour) sequence — but
// amortizes per-record costs: the subscriber-table probe is hoisted
// across runs of consecutive same-subscriber observations, the common
// shape after a decoded flow batch is partitioned by shard.
// Newly-fired rules are reported only through OnFire.
//
// haystack:hotpath — runs once per shard batch, the innermost loop of
// the socket-to-detection path.
func (e *Engine) ObserveBatch(obs []Obs) {
	var (
		cur  SubID
		si   uint
		have bool
	)
	for i := range obs {
		o := &obs[i]
		targets := e.dict.Lookup(o.Hour.Day(), o.IP, o.Port)
		if len(targets) == 0 {
			continue
		}
		if !have || o.Sub != cur {
			// A new subscriber may grow the table, which only moves
			// the slot of the subscriber being looked up.
			cur, si, have = o.Sub, e.track(o.Sub), true
		}
		for _, t := range targets {
			e.apply(cur, si, t, o.Hour, o.Pkts, nil)
		}
	}
}

// apply records one target's evidence for the subscriber in slot si
// and re-evaluates the rule, appending newly-fired rules to *fired
// when fired is non-nil.
func (e *Engine) apply(sub SubID, si uint, t rules.Target, h simtime.Hour, pkts uint64, fired *[]int) {
	j := e.stateIn(si, t.Rule)
	rs := &e.slab[j]
	rs.bits.set(t.Bit)
	rs.pkts += pkts
	e.evaluate(sub, e.slots[si].head, j, h, fired)
}

// evaluate re-checks the rule whose state is slab[j] (and its
// dependents) after new evidence; head starts the subscriber's chain.
func (e *Engine) evaluate(sub SubID, head uint32, j int, h simtime.Hour, fired *[]int) {
	rs := &e.slab[j]
	rule := int(rs.rule)
	if rs.detected || rs.bits.count() < e.minDoms[rule] {
		return
	}
	if r := &e.dict.Rules[rule]; r.RequireParent && r.Parent >= 0 {
		p := e.chainFind(head, r.Parent)
		if p < 0 || !e.slab[p].detected {
			return
		}
	}
	rs.detected = true
	rs.firstHour = h
	e.detections[rule]++
	if fired != nil {
		*fired = append(*fired, rule)
	}
	if e.OnFire != nil {
		e.OnFire(sub, rule, h)
	}
	// A newly-confirmed parent may release children waiting on it.
	for _, c := range e.children[rule] {
		if k := e.chainFind(head, c); k >= 0 {
			e.evaluate(sub, head, k, h, fired)
		}
	}
}

// Restore marks (sub, rule) as already detected with the given first
// detection hour, without evidence bits and without firing OnFire —
// the replay path rebuilding a window from a durable event log. A
// restored detection behaves exactly like a fired one: evaluate skips
// it (no double fire when live evidence arrives) and children gated
// on RequireParent see the parent as confirmed. Restoring an
// already-detected pair is a no-op, so replays are idempotent.
func (e *Engine) Restore(sub SubID, rule int, first simtime.Hour) {
	if rule < 0 || rule >= len(e.dict.Rules) {
		return
	}
	rs := &e.slab[e.stateIn(e.track(sub), rule)]
	if rs.detected {
		return
	}
	rs.detected = true
	rs.firstHour = first
	e.detections[rule]++
}

// Detected reports whether the rule has fired for the subscriber.
func (e *Engine) Detected(sub SubID, rule int) bool {
	rs := e.lookup(sub, rule)
	return rs != nil && rs.detected
}

// FirstDetection returns the hour a rule first fired for a subscriber
// and whether it fired at all.
func (e *Engine) FirstDetection(sub SubID, rule int) (simtime.Hour, bool) {
	rs := e.lookup(sub, rule)
	if rs == nil || !rs.detected {
		return 0, false
	}
	return rs.firstHour, true
}

// CountDetected returns how many subscribers the rule currently fires
// for.
func (e *Engine) CountDetected(rule int) int {
	if rule < 0 || rule >= len(e.detections) {
		return 0
	}
	return e.detections[rule]
}

// CountAnyDetected returns how many subscribers have at least one
// fired rule.
func (e *Engine) CountAnyDetected() int {
	n := 0
	for i := range e.slots {
		if e.slots[i].n == 0 {
			continue
		}
		for j := int(e.slots[i].head); j < len(e.slab); j = int(e.slab[j].next) {
			if e.slab[j].detected {
				n++
				break
			}
		}
	}
	return n
}

// Subscribers returns the number of tracked subscribers (those with at
// least one dictionary hit).
func (e *Engine) Subscribers() int { return e.used }

// RulePackets returns the sampled packets attributed to (sub, rule) so
// far in this bin — the §7.1 usage signal (threshold 10/hour for
// "actively used").
func (e *Engine) RulePackets(sub SubID, rule int) uint64 {
	if rs := e.lookup(sub, rule); rs != nil {
		return rs.pkts
	}
	return 0
}

// EachDetected visits every (subscriber, rule) detection, in no
// particular order.
func (e *Engine) EachDetected(fn func(sub SubID, rule int, first simtime.Hour)) {
	for i := range e.slots {
		s := &e.slots[i]
		if s.n == 0 {
			continue
		}
		for j := int(s.head); j < len(e.slab); j = int(e.slab[j].next) {
			if rs := &e.slab[j]; rs.detected {
				fn(s.sub, int(rs.rule), rs.firstHour)
			}
		}
	}
}

// UsageThreshold is the §7.1 packets/hour threshold: a detected device
// whose sampled packet count reaches it ("threshold 10/hour") counts as
// actively used.
const UsageThreshold = 10

// ActiveUse reports whether the rule's sampled packet count for the
// subscriber in this bin meets or exceeds UsageThreshold. The bound is
// inclusive: exactly 10 sampled packets in an hour is active use.
func (e *Engine) ActiveUse(sub SubID, rule int) bool {
	return e.RulePackets(sub, rule) >= UsageThreshold
}
