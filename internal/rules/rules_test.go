package rules

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/classify"
	"repro/internal/dedicated"
	"repro/internal/simrand"
	"repro/internal/world"
)

func compileDict(t testing.TB, seed uint64) (*Dictionary, *world.World) {
	if t != nil {
		t.Helper()
	}
	w := world.MustBuild(seed)
	days := w.Window.Days()
	pipe := dedicated.New(w.PDNS, w.Scans, days[0], days[len(days)-1])
	iot := classify.DefaultKB().ClassifyAll(w.Catalog.DomainNames()).IoTSpecific()
	census := pipe.ClassifyAll(iot)
	dict, err := Compile(w.Catalog, census, w.PDNS, days)
	if err != nil {
		if t != nil {
			t.Fatal(err)
		}
		panic(err)
	}
	return dict, w
}

func TestCompileKeepsAll37Rules(t *testing.T) {
	dict, _ := compileDict(t, 1)
	if len(dict.Rules) != 37 {
		t.Fatalf("compiled %d rules, want 37 (dropped: %v)", len(dict.Rules), dict.Dropped)
	}
	if len(dict.Dropped) != 0 {
		t.Fatalf("dropped rules: %v", dict.Dropped)
	}
	levels := dict.Levels()
	if levels[catalog.LevelPlatform] != 6 || levels[catalog.LevelManufacturer] != 20 || levels[catalog.LevelProduct] != 11 {
		t.Fatalf("levels = %v", levels)
	}
}

func TestDictionaryVerifies(t *testing.T) {
	dict, _ := compileDict(t, 1)
	if err := dict.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsNegativeParent(t *testing.T) {
	dict, _ := compileDict(t, 1)
	old := dict.Rules[0].Parent
	dict.Rules[0].Parent = -2
	if err := dict.Verify(); err == nil {
		t.Fatal("Verify accepted parent index -2")
	}
	dict.Rules[0].Parent = old
	if err := dict.Verify(); err != nil {
		t.Fatalf("Verify rejects restored dictionary: %v", err)
	}
}

func TestRuleDomainsSurvivePipeline(t *testing.T) {
	// Every monitored domain in the catalog specs is dedicated-hosted
	// (possibly censys-recovered), so none may be lost.
	dict, w := compileDict(t, 1)
	for _, spec := range w.Catalog.Rules {
		ri := dict.RuleIndex(spec.Name)
		if ri < 0 {
			t.Fatalf("rule %s dropped", spec.Name)
		}
		if got := len(dict.Rules[ri].Domains); got != len(spec.Domains) {
			t.Errorf("rule %s kept %d/%d domains", spec.Name, got, len(spec.Domains))
		}
	}
}

func TestHierarchyLinks(t *testing.T) {
	dict, _ := compileDict(t, 1)
	ftv := dict.RuleIndex("Fire TV")
	amz := dict.RuleIndex("Amazon Product")
	alexa := dict.RuleIndex("Alexa Enabled")
	if dict.Rules[ftv].Parent != amz || dict.Rules[amz].Parent != alexa {
		t.Fatal("Amazon hierarchy broken")
	}
	stv := dict.RuleIndex("Samsung TV")
	sam := dict.RuleIndex("Samsung IoT")
	if dict.Rules[stv].Parent != sam || !dict.Rules[stv].RequireParent {
		t.Fatal("Samsung hierarchy broken")
	}
	if dict.Rules[alexa].Parent != -1 {
		t.Fatal("root rule has a parent")
	}
}

func TestMinDomains(t *testing.T) {
	r := Rule{Domains: make([]string, 10)}
	cases := []struct {
		d    float64
		want int
	}{
		{0.0, 1}, {0.05, 1}, {0.1, 1}, {0.4, 4}, {0.99, 9}, {1.0, 10},
	}
	for _, c := range cases {
		if got := r.MinDomains(c.d); got != c.want {
			t.Errorf("MinDomains(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	one := Rule{Domains: make([]string, 1)}
	if one.MinDomains(1.0) != 1 || one.MinDomains(0.1) != 1 {
		t.Error("single-domain rule must always need exactly 1")
	}
}

func TestLookupMatchesTrafficDestinations(t *testing.T) {
	// Flows generated toward a monitored domain's current address must
	// hit the dictionary on the same day.
	dict, w := compileDict(t, 1)
	day := w.Window.Days()[4]
	r := w.ResolverOn(day)
	dom := "avs-alexa.simamazon.example"
	ips := r.Resolve(dom)
	if len(ips) == 0 {
		t.Fatal("avs does not resolve")
	}
	for _, ip := range ips {
		targets := dict.Lookup(day, ip, 443)
		if len(targets) == 0 {
			t.Fatalf("no targets for %v on %v", ip, day)
		}
		// avs appears in two rules (Alexa Enabled and Amazon Product;
		// Fire TV monitors only its additional domains).
		if len(targets) != 2 {
			t.Fatalf("avs IP maps to %d targets, want 2", len(targets))
		}
	}
}

func TestLookupWrongPortMisses(t *testing.T) {
	dict, w := compileDict(t, 1)
	day := w.Window.Days()[0]
	ip := w.ResolverOn(day).Resolve("avs-alexa.simamazon.example")[0]
	if got := dict.Lookup(day, ip, 8080); len(got) != 0 {
		t.Fatalf("port-mismatched lookup returned %v", got)
	}
}

func TestLookupDayClamping(t *testing.T) {
	dict, w := compileDict(t, 1)
	days := w.Window.Days()
	ip := w.ResolverOn(days[0]).Resolve("mqtt.simmeross.example")[0]
	dom := w.Catalog.Domains["mqtt.simmeross.example"]
	before := dict.Lookup(days[0]-10, ip, dom.Port)
	first := dict.Lookup(days[0], ip, dom.Port)
	if len(before) != len(first) {
		t.Fatal("clamped lookup differs from first day")
	}
}

func TestCensysRecoveredDomainsInHitlist(t *testing.T) {
	dict, w := compileDict(t, 1)
	day := w.Window.Days()[0]
	// r1.simreolink.example is pdns-uncovered but censys-recovered.
	ips := dict.DomainIPs(day, "Reolink Cam.", "r1.simreolink.example")
	if len(ips) == 0 {
		t.Fatal("censys-recovered domain has no hitlist addresses")
	}
}

func TestHitlistSizePositive(t *testing.T) {
	dict, w := compileDict(t, 1)
	for _, day := range w.Window.Days() {
		if dict.HitlistSize(day) < 100 {
			t.Fatalf("hitlist on %v has %d keys", day, dict.HitlistSize(day))
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	w := world.MustBuild(1)
	days := w.Window.Days()
	pipe := dedicated.New(w.PDNS, w.Scans, days[0], days[len(days)-1])
	iot := classify.DefaultKB().ClassifyAll(w.Catalog.DomainNames()).IoTSpecific()
	census := pipe.ClassifyAll(iot)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(w.Catalog, census, w.PDNS, days); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	dict, w := compileDict(nil, 1)
	day := w.Window.Days()[0]
	ip := w.ResolverOn(day).Resolve("avs-alexa.simamazon.example")[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dict.Lookup(day, ip, 443)
	}
}

// The flat IPv4 tables must answer exactly like the per-day maps: on
// every compiled key (IPv6 keys still go to the map), on the IPv4-mapped
// IPv6 spelling of every IPv4 key (a distinct netip.Addr, so a miss
// unless compiled as such), and on random misses.
func TestV4TableMatchesMap(t *testing.T) {
	dict, _ := compileDict(t, 1)
	rng := simrand.New(77)
	keys := 0
	for day, m := range dict.days {
		for k, want := range m {
			keys++
			if got := dict.Lookup(day, k.ip, k.port); !slices.Equal(got, want) {
				t.Fatalf("day %v %v:%d: table %v, map %v", day, k.ip, k.port, got, want)
			}
			if k.ip.Is4() {
				mapped := netip.AddrFrom16(k.ip.As16())
				if got, want := dict.Lookup(day, mapped, k.port), m[ipPort{mapped, k.port}]; !slices.Equal(got, want) {
					t.Fatalf("day %v mapped %v: %v, want %v", day, mapped, got, want)
				}
				if got, want := dict.Lookup(day, k.ip, k.port+1), m[ipPort{k.ip, k.port + 1}]; !slices.Equal(got, want) {
					t.Fatalf("day %v %v:%d: %v, want %v", day, k.ip, k.port+1, got, want)
				}
			}
		}
		for i := 0; i < 10000; i++ {
			var a [4]byte
			binary.BigEndian.PutUint32(a[:], uint32(rng.Uint64()))
			ip, port := netip.AddrFrom4(a), uint16(rng.Intn(2))*443+uint16(rng.Intn(3))
			if got, want := dict.Lookup(day, ip, port), m[ipPort{ip, port}]; !slices.Equal(got, want) {
				t.Fatalf("day %v random %v:%d: %v, want %v", day, ip, port, got, want)
			}
		}
	}
	if keys == 0 {
		t.Fatal("dictionary compiled no keys")
	}
}
