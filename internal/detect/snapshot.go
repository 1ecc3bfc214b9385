package detect

import (
	"cmp"
	"slices"

	"repro/internal/simtime"
)

// Detection is one (subscriber, rule) detection event.
type Detection struct {
	Sub   SubID
	Rule  int
	First simtime.Hour
}

// Snapshot is an immutable summary of an engine's detections at one
// point in time. Snapshots taken from engines that track disjoint
// subscriber sets (shards) merge losslessly with Merge, which is how
// the sharded pipeline exposes a single coherent view.
type Snapshot struct {
	detections []int // per-rule detected-subscriber counts
	any        int   // subscribers with at least one fired rule
	subs       int   // tracked subscribers
	list       []Detection
	ruleFirst  []simtime.Hour // earliest firing hour per rule
	ruleFired  []bool
	sorted     bool // list is in (subscriber, rule) order
}

// Snapshot captures the engine's current detections. The engine may
// continue to mutate afterwards; the snapshot does not.
func (e *Engine) Snapshot() *Snapshot {
	s := e.Capture()
	s.sort()
	return s
}

// Capture is Snapshot without the ordering step, for a caller holding
// a lock around the engine: it copies the detections in table order,
// and Merge orders them once the lock is released. A capture must
// pass through Merge before its detections are read.
func (e *Engine) Capture() *Snapshot {
	s := &Snapshot{
		detections: append([]int(nil), e.detections...),
		subs:       e.used,
		ruleFirst:  make([]simtime.Hour, len(e.dict.Rules)),
		ruleFired:  make([]bool, len(e.dict.Rules)),
	}
	total := 0
	for _, n := range e.detections {
		total += n
	}
	if total > 0 {
		s.list = make([]Detection, 0, total)
	}
	for i := range e.slots {
		sl := &e.slots[i]
		if sl.n == 0 {
			continue
		}
		any := false
		for j := int(sl.head); j < len(e.slab); j = int(e.slab[j].next) {
			rs := &e.slab[j]
			if !rs.detected {
				continue
			}
			any = true
			rule := int(rs.rule)
			s.list = append(s.list, Detection{Sub: sl.sub, Rule: rule, First: rs.firstHour})
			if !s.ruleFired[rule] || rs.firstHour < s.ruleFirst[rule] {
				s.ruleFired[rule] = true
				s.ruleFirst[rule] = rs.firstHour
			}
		}
		if any {
			s.any++
		}
	}
	return s
}

// Merge combines snapshots taken from engines with disjoint subscriber
// sets into one. It returns an empty snapshot for no arguments. Parts
// taken with Capture are ordered in place; the ordered parts are then
// merged, not re-sorted.
func Merge(parts ...*Snapshot) *Snapshot {
	out := &Snapshot{sorted: true}
	var lists [][]Detection
	for _, p := range parts {
		if p == nil {
			continue
		}
		p.sort()
		if len(out.detections) < len(p.detections) {
			out.detections = append(out.detections, make([]int, len(p.detections)-len(out.detections))...)
			out.ruleFirst = append(out.ruleFirst, make([]simtime.Hour, len(p.ruleFirst)-len(out.ruleFirst))...)
			out.ruleFired = append(out.ruleFired, make([]bool, len(p.ruleFired)-len(out.ruleFired))...)
		}
		for i, n := range p.detections {
			out.detections[i] += n
		}
		for i, fired := range p.ruleFired {
			if fired && (!out.ruleFired[i] || p.ruleFirst[i] < out.ruleFirst[i]) {
				out.ruleFired[i] = true
				out.ruleFirst[i] = p.ruleFirst[i]
			}
		}
		out.any += p.any
		out.subs += p.subs
		if len(p.list) > 0 {
			lists = append(lists, p.list)
		}
	}
	out.list = mergeSorted(lists)
	return out
}

// sort orders a capture's detections by (subscriber, rule).
func (s *Snapshot) sort() {
	if !s.sorted {
		slices.SortFunc(s.list, compareDetections)
		s.sorted = true
	}
}

func compareDetections(a, b Detection) int {
	if c := cmp.Compare(a.Sub, b.Sub); c != 0 {
		return c
	}
	return cmp.Compare(a.Rule, b.Rule)
}

// mergeSorted merges ordered detection lists with a binary min-heap
// keyed by each list's head. A single list is returned as is: both
// snapshots sharing it are immutable.
func mergeSorted(lists [][]Detection) []Detection {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]Detection, 0, n)
	h := lists
	less := func(i, j int) bool { return compareDetections(h[i][0], h[j][0]) < 0 }
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if r := c + 1; r < len(h) && less(r, c) {
				c = r
			}
			if !less(c, i) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		out = append(out, h[0][0])
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return out
}

// CountDetected returns how many subscribers the rule fired for.
func (s *Snapshot) CountDetected(rule int) int {
	if rule < 0 || rule >= len(s.detections) {
		return 0
	}
	return s.detections[rule]
}

// CountAnyDetected returns how many subscribers have at least one fired
// rule.
func (s *Snapshot) CountAnyDetected() int { return s.any }

// Subscribers returns the number of tracked subscribers.
func (s *Snapshot) Subscribers() int { return s.subs }

// RuleFirstDetection returns the earliest hour the rule fired for any
// subscriber, and whether it fired at all.
func (s *Snapshot) RuleFirstDetection(rule int) (simtime.Hour, bool) {
	if rule < 0 || rule >= len(s.ruleFired) || !s.ruleFired[rule] {
		return 0, false
	}
	return s.ruleFirst[rule], true
}

// EachDetected visits every detection in (subscriber, rule) order.
func (s *Snapshot) EachDetected(fn func(sub SubID, rule int, first simtime.Hour)) {
	for _, d := range s.list {
		fn(d.Sub, d.Rule, d.First)
	}
}

// Detections returns the detections in (subscriber, rule) order. The
// caller must not modify the returned slice.
func (s *Snapshot) Detections() []Detection { return s.list }
