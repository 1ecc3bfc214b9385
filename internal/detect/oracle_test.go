package detect

import (
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/rules"
	"repro/internal/simrand"
	"repro/internal/simtime"
	"repro/internal/world"
)

type endpoint struct {
	ip   netip.Addr
	port uint16
}

// hitEndpoints lists every endpoint the dictionary knows on the first
// day, grouped by rule so a stream can pile many rules onto one
// subscriber.
func hitEndpoints(t testing.TB, w *world.World) []endpoint {
	t.Helper()
	day := w.Window.Days()[0]
	var eps []endpoint
	for _, name := range w.Catalog.DomainNames() {
		d := w.Catalog.Domains[name]
		for _, ip := range w.ResolverOn(day).Resolve(name) {
			eps = append(eps, endpoint{ip, d.Port})
		}
	}
	if len(eps) == 0 {
		t.Fatal("no resolvable endpoints")
	}
	return eps
}

// collidingSubs returns n subscriber IDs whose table hashes share their
// top 12 bits, so they land on one home slot in every table of up to
// 4096 slots.
func collidingSubs(n int) []SubID {
	var out []SubID
	want := simrand.Mix64(0) >> 52
	for x := uint64(1); len(out) < n; x++ {
		if simrand.Mix64(x)>>52 == want {
			out = append(out, SubID(x))
		}
	}
	return out
}

// oracleRun drives the flat engine and the reference engine with one
// randomized stream and fails on the first divergence.
type oracleRun struct {
	t     *testing.T
	dict  *rules.Dictionary
	flat  *Engine
	ref   *refEngine
	fFire []fireEvent
	rFire []fireEvent
	seen  map[SubID]bool
}

func (o *oracleRun) check(label string) {
	t := o.t
	t.Helper()
	if !slices.Equal(o.fFire, o.rFire) {
		t.Fatalf("%s: OnFire sequences diverged (%d vs %d events)", label, len(o.fFire), len(o.rFire))
	}
	if a, b := o.flat.Subscribers(), o.ref.Subscribers(); a != b {
		t.Fatalf("%s: Subscribers %d, reference %d", label, a, b)
	}
	if a, b := o.flat.CountAnyDetected(), o.ref.CountAnyDetected(); a != b {
		t.Fatalf("%s: CountAnyDetected %d, reference %d", label, a, b)
	}
	for rule := -1; rule <= len(o.dict.Rules); rule++ {
		if a, b := o.flat.CountDetected(rule), o.ref.CountDetected(rule); a != b {
			t.Fatalf("%s: CountDetected(%d) %d, reference %d", label, rule, a, b)
		}
	}
	for sub := range o.seen {
		for rule := -1; rule <= len(o.dict.Rules); rule++ {
			if a, b := o.flat.Detected(sub, rule), o.ref.Detected(sub, rule); a != b {
				t.Fatalf("%s: Detected(%d, %d) %v, reference %v", label, sub, rule, a, b)
			}
			ha, oka := o.flat.FirstDetection(sub, rule)
			hb, okb := o.ref.FirstDetection(sub, rule)
			if ha != hb || oka != okb {
				t.Fatalf("%s: FirstDetection(%d, %d) %v %v, reference %v %v", label, sub, rule, ha, oka, hb, okb)
			}
			if a, b := o.flat.RulePackets(sub, rule), o.ref.RulePackets(sub, rule); a != b {
				t.Fatalf("%s: RulePackets(%d, %d) %d, reference %d", label, sub, rule, a, b)
			}
		}
	}
	want := o.ref.Snapshot()
	if got := o.flat.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: snapshot diverged: %d detections, reference %d", label, len(got.list), len(want.list))
	}
	var each []Detection
	o.flat.EachDetected(func(sub SubID, rule int, first simtime.Hour) {
		each = append(each, Detection{sub, rule, first})
	})
	slices.SortFunc(each, compareDetections)
	if !slices.Equal(each, want.list) {
		t.Fatalf("%s: EachDetected visited %d detections, reference %d", label, len(each), len(want.list))
	}
}

func TestEngineMatchesReference(t *testing.T) {
	dict, w := testDict(t)
	eps := hitEndpoints(t, w)
	colliders := collidingSubs(64)
	rng := simrand.New(2024)
	o := &oracleRun{t: t, dict: dict, flat: New(dict, 0.4), ref: newRefEngine(dict, 0.4), seen: map[SubID]bool{}}
	o.flat.OnFire = func(sub SubID, rule int, h simtime.Hour) { o.fFire = append(o.fFire, fireEvent{sub, rule, h}) }
	o.ref.OnFire = func(sub SubID, rule int, h simtime.Hour) { o.rFire = append(o.rFire, fireEvent{sub, rule, h}) }

	pickSub := func(pop int) SubID {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1, 2:
			return colliders[rng.Intn(len(colliders))]
		case 3:
			return 7 // the many-rules subscriber
		}
		return SubID(1 + rng.Intn(pop))
	}
	manyRules := 0
	// Window sizes cross the table's growth boundaries (12, 24, 48, …
	// subscribers) and end in one large window.
	for win, pop := range []int{3, 11, 13, 25, 49, 200, 1500, 7000} {
		var batch []Obs
		for step := 0; step < 4*pop+400; step++ {
			sub := pickSub(pop)
			o.seen[sub] = true
			h := w.Window.Start + simtime.Hour(rng.Intn(48))
			if rng.Intn(40) == 0 {
				rule := rng.Intn(len(dict.Rules)+2) - 1 // out-of-range rules too
				o.flat.Restore(sub, rule, h)
				o.ref.Restore(sub, rule, h)
				continue
			}
			ep := eps[rng.Intn(len(eps))]
			obs := Obs{Sub: sub, Hour: h, IP: ep.ip, Port: ep.port, Pkts: uint64(1 + rng.Intn(4))}
			if rng.Intn(5) == 0 {
				obs.Port++ // dictionary miss
			}
			o.ref.Observe(obs.Sub, obs.Hour, obs.IP, obs.Port, obs.Pkts)
			if rng.Intn(2) == 0 {
				want := len(o.fFire)
				fired := o.flat.Observe(obs.Sub, obs.Hour, obs.IP, obs.Port, obs.Pkts)
				got := make([]int, 0, len(fired))
				for _, ev := range o.fFire[want:] {
					got = append(got, ev.rule)
				}
				if !slices.Equal(fired, got) {
					t.Fatalf("window %d: Observe returned %v, OnFire saw %v", win, fired, got)
				}
			} else {
				// Same-subscriber runs exercise ObserveBatch's hoisting.
				batch = append(batch, obs)
				for n := rng.Intn(3); n > 0; n-- {
					ep := eps[rng.Intn(len(eps))]
					extra := Obs{Sub: sub, Hour: h, IP: ep.ip, Port: ep.port, Pkts: 1}
					o.ref.Observe(extra.Sub, extra.Hour, extra.IP, extra.Port, extra.Pkts)
					batch = append(batch, extra)
				}
				o.flat.ObserveBatch(batch)
				batch = batch[:0]
			}
			if step%(pop+97) == 0 {
				o.check(fmt.Sprintf("window %d step %d", win, step))
			}
		}
		o.check(fmt.Sprintf("window %d end", win))
		if st := o.ref.subs[7]; st != nil {
			manyRules = max(manyRules, len(st.states))
		}
		if o.flat.Subscribers() == 0 {
			t.Fatalf("window %d tracked no subscribers", win)
		}
		o.flat.Reset()
		o.ref.Reset()
		o.check(fmt.Sprintf("window %d after reset", win))
	}
	if manyRules < 10 {
		t.Fatalf("the busiest subscriber held %d rule states, want a long chain", manyRules)
	}
}

// Shard captures merged with the k-way merge must equal one engine's
// snapshot of the same stream.
func TestMergedCapturesMatchSingleEngine(t *testing.T) {
	obs, whole, _ := obsStream(t, 6000)
	for i := range obs {
		o := &obs[i]
		whole.Observe(o.Sub, o.Hour, o.IP, o.Port, o.Pkts)
	}
	want := whole.Snapshot()
	if len(want.list) == 0 {
		t.Fatal("stream produced no detections")
	}
	for _, n := range []int{1, 2, 3, 8} {
		shards := make([]*Engine, n)
		for i := range shards {
			shards[i] = New(whole.dict, 0.4)
		}
		for i := range obs {
			o := &obs[i]
			shards[simrand.Mix64(uint64(o.Sub))%uint64(n)].Observe(o.Sub, o.Hour, o.IP, o.Port, o.Pkts)
		}
		parts := make([]*Snapshot, n)
		for i, e := range shards {
			parts[i] = e.Capture()
		}
		if got := Merge(parts...); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: merged captures differ from the single engine (%d vs %d detections)", n, len(got.list), len(want.list))
		}
	}
}

// pointerFree reports whether values of t hold no pointers.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return false
	}
	return true
}

// The GC never scans the subscriber table or the slab only while their
// element types hold no pointers; ruleState must also stay within its
// 40-byte budget.
func TestEngineStateIsPointerFree(t *testing.T) {
	for _, v := range []any{slot{}, ruleState{}} {
		if typ := reflect.TypeOf(v); !pointerFree(typ) {
			t.Errorf("%v holds pointers", typ)
		}
	}
	if n := unsafe.Sizeof(ruleState{}); n > 40 {
		t.Errorf("ruleState is %d bytes, budget 40", n)
	}
}

// The pipeline shards by Mix64(sub) modulo the shard count, so every
// subscriber of one shard shares those low bits. The table must index
// by bits independent of them, or part of it is never a home slot and
// probes lengthen.
func TestProbeLengthBoundedWithinOneShard(t *testing.T) {
	dict, _ := testDict(t)
	for _, shards := range []uint64{2, 8} {
		e := New(dict, 0.4)
		n := 0
		for x := uint64(0); n < 100000; x++ {
			if simrand.Mix64(x)%shards == 0 {
				e.Restore(SubID(x), 0, 1)
				n++
			}
		}
		mask := uint(len(e.slots) - 1)
		total, worst := 0, uint(0)
		for i := range e.slots {
			if e.slots[i].n == 0 {
				continue
			}
			home := uint(simrand.Mix64(uint64(e.slots[i].sub)) >> e.shift)
			d := (uint(i) - home) & mask
			total += int(d) + 1
			worst = max(worst, d+1)
		}
		if mean := float64(total) / float64(e.used); mean > 3 || worst > 100 {
			t.Errorf("%d shards: mean probe %.2f, worst %d over %d subscribers in %d slots", shards, mean, worst, e.used, len(e.slots))
		}
	}
}

// Observing already-tracked subscribers must not allocate, whatever
// the subscriber count: no per-record map, chain or slab growth.
func TestObserveBatchSeenSubscribersAllocFree(t *testing.T) {
	dict, w := testDict(t)
	eps := hitEndpoints(t, w)
	rng := simrand.New(5)
	obs := make([]Obs, 4096)
	for i := range obs {
		ep := eps[rng.Intn(len(eps))]
		obs[i] = Obs{Sub: SubID(rng.Intn(3000)), Hour: w.Window.Start, IP: ep.ip, Port: ep.port, Pkts: 1}
	}
	e := New(dict, 0.4)
	e.ObserveBatch(obs)
	if allocs := testing.AllocsPerRun(50, func() { e.ObserveBatch(obs) }); allocs != 0 {
		t.Fatalf("ObserveBatch on seen subscribers allocates %v allocs/run, want 0", allocs)
	}
}

// BenchmarkEngineFootprint measures the live heap per subscriber and
// the cost of a forced GC with a window of subscribers held, at the
// measured mix of 2.07 rule states per subscriber (28% hold 1, 44% 2,
// 20% 3, 8% 4). The map-based reference engine runs alongside for
// comparison.
func BenchmarkEngineFootprint(b *testing.B) {
	dict, _ := testDict(b)
	type engine interface {
		Restore(sub SubID, rule int, first simtime.Hour)
	}
	builds := []struct {
		name string
		new  func() engine
	}{
		{"flat", func() engine { return New(dict, 0.4) }},
		{"map", func() engine { return newRefEngine(dict, 0.4) }},
	}
	for _, subs := range []int{100_000, 1_000_000} {
		for _, bld := range builds {
			b.Run(fmt.Sprintf("%s/subs=%d", bld.name, subs), func(b *testing.B) {
				var perSub, gcMs float64
				for i := 0; i < b.N; i++ {
					rng := simrand.New(uint64(i + 1))
					before := liveHeap()
					e := bld.new()
					for s := 0; s < subs; s++ {
						sub := SubID(rng.Uint64())
						k := 1
						switch p := rng.Intn(100); {
						case p >= 92:
							k = 4
						case p >= 72:
							k = 3
						case p >= 28:
							k = 2
						}
						for r := 0; r < k; r++ {
							e.Restore(sub, (s+r*7)%len(dict.Rules), 1)
						}
					}
					t0 := time.Now()
					after := liveHeap()
					gcMs += float64(time.Since(t0).Microseconds()) / 1e3
					perSub += float64(after-before) / float64(subs)
					runtime.KeepAlive(e)
				}
				b.ReportMetric(perSub/float64(b.N), "B/sub")
				b.ReportMetric(gcMs/float64(b.N), "gc-ms")
			})
		}
	}
}

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
