package detect

import (
	"net/netip"
	"sort"

	"repro/internal/rules"
	"repro/internal/simtime"
)

// refEngine is the engine as it stood before the flat subscriber
// table: a map of heap-allocated subscriber states, each holding an
// association list of rule states. It is kept, test-only, as the
// oracle the flat engine is checked against.
type refEngine struct {
	dict       *rules.Dictionary
	minDoms    []int
	subs       map[SubID]*refSubState
	detections []int
	OnFire     func(sub SubID, rule int, h simtime.Hour)
}

type refRuleState struct {
	rule      int
	bits      bitset
	pkts      uint64
	firstHour simtime.Hour
	detected  bool
}

type refSubState struct {
	states []refRuleState
}

func (s *refSubState) get(rule int) *refRuleState {
	if rs := s.lookup(rule); rs != nil {
		return rs
	}
	s.states = append(s.states, refRuleState{rule: rule})
	return &s.states[len(s.states)-1]
}

func (s *refSubState) lookup(rule int) *refRuleState {
	for i := range s.states {
		if s.states[i].rule == rule {
			return &s.states[i]
		}
	}
	return nil
}

func newRefEngine(dict *rules.Dictionary, d float64) *refEngine {
	e := &refEngine{dict: dict, minDoms: make([]int, len(dict.Rules))}
	for i := range dict.Rules {
		e.minDoms[i] = dict.Rules[i].MinDomains(d)
	}
	e.Reset()
	return e
}

func (e *refEngine) Reset() {
	e.subs = make(map[SubID]*refSubState)
	e.detections = make([]int, len(e.dict.Rules))
}

func (e *refEngine) sub(sub SubID) *refSubState {
	st := e.subs[sub]
	if st == nil {
		st = &refSubState{}
		e.subs[sub] = st
	}
	return st
}

func (e *refEngine) Observe(sub SubID, h simtime.Hour, ip netip.Addr, port uint16, pkts uint64) []int {
	targets := e.dict.Lookup(h.Day(), ip, port)
	if len(targets) == 0 {
		return nil
	}
	st := e.sub(sub)
	var fired []int
	for _, t := range targets {
		rs := st.get(t.Rule)
		rs.bits.set(t.Bit)
		rs.pkts += pkts
		fired = e.evaluate(sub, st, t.Rule, h, fired)
	}
	return fired
}

func (e *refEngine) evaluate(sub SubID, st *refSubState, rule int, h simtime.Hour, fired []int) []int {
	rs := st.lookup(rule)
	if rs == nil || rs.detected || rs.bits.count() < e.minDoms[rule] {
		return fired
	}
	r := &e.dict.Rules[rule]
	if r.RequireParent && r.Parent >= 0 {
		ps := st.lookup(r.Parent)
		if ps == nil || !ps.detected {
			return fired
		}
	}
	rs.detected = true
	rs.firstHour = h
	e.detections[rule]++
	fired = append(fired, rule)
	if e.OnFire != nil {
		e.OnFire(sub, rule, h)
	}
	for i := range e.dict.Rules {
		if e.dict.Rules[i].RequireParent && e.dict.Rules[i].Parent == rule {
			fired = e.evaluate(sub, st, i, h, fired)
		}
	}
	return fired
}

func (e *refEngine) Restore(sub SubID, rule int, first simtime.Hour) {
	if rule < 0 || rule >= len(e.dict.Rules) {
		return
	}
	rs := e.sub(sub).get(rule)
	if rs.detected {
		return
	}
	rs.detected = true
	rs.firstHour = first
	e.detections[rule]++
}

func (e *refEngine) state(sub SubID, rule int) *refRuleState {
	st := e.subs[sub]
	if st == nil {
		return nil
	}
	return st.lookup(rule)
}

func (e *refEngine) Detected(sub SubID, rule int) bool {
	rs := e.state(sub, rule)
	return rs != nil && rs.detected
}

func (e *refEngine) FirstDetection(sub SubID, rule int) (simtime.Hour, bool) {
	rs := e.state(sub, rule)
	if rs == nil || !rs.detected {
		return 0, false
	}
	return rs.firstHour, true
}

func (e *refEngine) RulePackets(sub SubID, rule int) uint64 {
	if rs := e.state(sub, rule); rs != nil {
		return rs.pkts
	}
	return 0
}

func (e *refEngine) CountDetected(rule int) int {
	if rule < 0 || rule >= len(e.detections) {
		return 0
	}
	return e.detections[rule]
}

func (e *refEngine) CountAnyDetected() int {
	n := 0
	for _, st := range e.subs {
		for i := range st.states {
			if st.states[i].detected {
				n++
				break
			}
		}
	}
	return n
}

func (e *refEngine) Subscribers() int { return len(e.subs) }

// Snapshot builds the snapshot the old engine produced: detections
// sorted by (subscriber, rule) with sort.Slice.
func (e *refEngine) Snapshot() *Snapshot {
	s := &Snapshot{
		detections: append([]int(nil), e.detections...),
		subs:       len(e.subs),
		ruleFirst:  make([]simtime.Hour, len(e.dict.Rules)),
		ruleFired:  make([]bool, len(e.dict.Rules)),
		sorted:     true,
	}
	for sub, st := range e.subs {
		any := false
		for i := range st.states {
			rs := &st.states[i]
			if !rs.detected {
				continue
			}
			any = true
			s.list = append(s.list, Detection{Sub: sub, Rule: rs.rule, First: rs.firstHour})
			if !s.ruleFired[rs.rule] || rs.firstHour < s.ruleFirst[rs.rule] {
				s.ruleFired[rs.rule] = true
				s.ruleFirst[rs.rule] = rs.firstHour
			}
		}
		if any {
			s.any++
		}
	}
	sort.Slice(s.list, func(i, j int) bool {
		if s.list[i].Sub != s.list[j].Sub {
			return s.list[i].Sub < s.list[j].Sub
		}
		return s.list[i].Rule < s.list[j].Rule
	})
	return s
}
