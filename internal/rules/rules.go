// Package rules compiles the catalog's detection-rule specs against the
// dedicated-infrastructure census into an executable IoT dictionary
// (§4.3): for every rule, the monitored primary domains that survived
// the §4.2 pipeline, and for every day of the study window, the
// IP/port → (rule, domain) hitlist that flow records are matched
// against.
package rules

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"net/netip"

	"repro/internal/catalog"
	"repro/internal/dedicated"
	"repro/internal/pdns"
	"repro/internal/simrand"
	"repro/internal/simtime"
)

// Rule is one compiled detection rule.
type Rule struct {
	Name          string
	Level         catalog.Level
	Parent        int // index into Dictionary.Rules, -1 for roots
	RequireParent bool
	MultiVendor   bool
	// MinOverride fixes the evidence requirement independent of D
	// (0 = use the threshold formula).
	MinOverride int
	// Domains are the usable monitored domains (dedicated verdicts
	// only), in spec order.
	Domains  []string
	Products []string
}

// Label renders the Fig 10 row label.
func (r *Rule) Label() string { return fmt.Sprintf("%s(%s)", r.Name, r.Level) }

// MinDomains returns the §4.3.2 evidence requirement for detection
// threshold D: max(1, ⌊D·N⌋) of the N monitored domains, unless the
// rule carries a fixed override (side information about which domain
// is critical, §4.3.1).
func (r *Rule) MinDomains(d float64) int {
	if r.MinOverride > 0 {
		return r.MinOverride
	}
	k := int(math.Floor(d * float64(len(r.Domains))))
	if k < 1 {
		k = 1
	}
	return k
}

// Target identifies one (rule, domain) pair a service endpoint maps to.
type Target struct {
	Rule int // index into Dictionary.Rules
	Bit  int // index into that rule's Domains
}

type ipPort struct {
	ip   netip.Addr
	port uint16
}

// Dictionary is the compiled daily hitlist plus rules (the paper's
// "IoT dictionary", §4).
type Dictionary struct {
	Rules []Rule
	// Dropped lists rule specs that lost every monitored domain in the
	// pipeline and cannot be used.
	Dropped []string

	days map[simtime.Day]map[ipPort][]Target
	// v4 mirrors the IPv4 keys of days as flat tables, indexed by
	// day - minDay, over one target slab. IPv6 and IPv4-mapped keys
	// are looked up in days only, so netip.Addr equality is unchanged.
	v4      []v4Table
	targets []Target

	byName map[string]int
	ports  map[string]uint16
	minDay simtime.Day
	maxDay simtime.Day
}

// Compile builds the dictionary for the given days. The census decides
// which monitored domains are usable; passive DNS provides the per-day
// IP expansion, with the census' scan-derived IPs as fallback for
// censys-recovered domains.
func Compile(cat *catalog.Catalog, census *dedicated.Census, db *pdns.DB, days []simtime.Day) (*Dictionary, error) {
	if len(days) == 0 {
		return nil, fmt.Errorf("rules: no days to compile")
	}
	dict := &Dictionary{
		days:   make(map[simtime.Day]map[ipPort][]Target, len(days)),
		byName: map[string]int{},
		ports:  map[string]uint16{},
		minDay: days[0],
		maxDay: days[len(days)-1],
	}

	for _, spec := range cat.Rules {
		var usable []string
		for _, d := range spec.Domains {
			if census.Usable(d) {
				usable = append(usable, d)
			}
		}
		if len(usable) == 0 {
			dict.Dropped = append(dict.Dropped, spec.Name)
			continue
		}
		dict.byName[spec.Name] = len(dict.Rules)
		dict.Rules = append(dict.Rules, Rule{
			Name: spec.Name, Level: spec.Level, Parent: -1,
			RequireParent: spec.RequireParent, MultiVendor: spec.MultiVendor,
			MinOverride: spec.MinOverride,
			Domains:     usable, Products: spec.Products,
		})
		for _, d := range usable {
			if dom, ok := cat.Domains[d]; ok {
				dict.ports[d] = dom.Port
			} else {
				dict.ports[d] = 443
			}
		}
	}
	// Resolve parents after all rules exist (dropped parents detach).
	for i := range dict.Rules {
		spec, _ := cat.Rule(dict.Rules[i].Name)
		if spec != nil && spec.Parent != "" {
			if pi, ok := dict.byName[spec.Parent]; ok {
				dict.Rules[i].Parent = pi
			}
		}
	}

	for _, day := range days {
		m := make(map[ipPort][]Target)
		for ri := range dict.Rules {
			r := &dict.Rules[ri]
			for bit, d := range r.Domains {
				ips := db.ResolveA(d, day, day)
				if len(ips) == 0 {
					// Censys-recovered domain: static scan-derived set.
					ips = census.Results[d].IPs
				}
				port := dict.ports[d]
				for _, ip := range ips {
					k := ipPort{ip: ip, port: port}
					m[k] = append(m[k], Target{Rule: ri, Bit: bit})
				}
			}
		}
		dict.days[day] = m
	}
	dict.v4 = make([]v4Table, dict.maxDay-dict.minDay+1)
	for day, m := range dict.days {
		dict.v4[day-dict.minDay] = dict.buildV4(m)
	}
	return dict, nil
}

// v4Table is one day's IPv4 hitlist: an open-addressing table of
// packed (address, port) keys, probed linearly from the top bits of
// the key's Mix64 hash, at most half full.
type v4Table struct {
	slots []v4Slot
	shift uint // 64 - log2(len(slots)); 64 for an empty table
}

type v4Slot struct {
	key uint64 // v4Key of the endpoint; 0 marks a free slot
	off uint32 // first of the key's targets in Dictionary.targets
	n   uint32
}

// v4Key packs an IPv4 endpoint into 49 bits; the marker bit keeps
// every key non-zero.
func v4Key(ip netip.Addr, port uint16) uint64 {
	a := ip.As4()
	return 1<<48 | uint64(binary.BigEndian.Uint32(a[:]))<<16 | uint64(port)
}

// buildV4 flattens the IPv4 keys of one day's hitlist, appending their
// targets to d.targets.
func (d *Dictionary) buildV4(m map[ipPort][]Target) v4Table {
	n := 0
	for k := range m {
		if k.ip.Is4() {
			n++
		}
	}
	if n == 0 {
		return v4Table{shift: 64}
	}
	size := 1 << bits.Len(uint(2*n-1))
	t := v4Table{slots: make([]v4Slot, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
	for k, ts := range m {
		if !k.ip.Is4() {
			continue
		}
		key := v4Key(k.ip, k.port)
		i := t.home(key)
		for t.slots[i].key != 0 {
			i = (i + 1) & uint(size-1)
		}
		t.slots[i] = v4Slot{key: key, off: uint32(len(d.targets)), n: uint32(len(ts))}
		d.targets = append(d.targets, ts...)
	}
	return t
}

func (t *v4Table) home(key uint64) uint { return uint(simrand.Mix64(key) >> t.shift) }

// lookup returns key's targets from slab, or nil.
//
// haystack:hotpath — runs once per IPv4 observation.
func (t *v4Table) lookup(key uint64, slab []Target) []Target {
	slots := t.slots
	mask := uint(len(slots)) - 1
	for i := t.home(key); i < uint(len(slots)); i = (i + 1) & mask {
		if slots[i].key == 0 {
			return nil
		}
		if slots[i].key == key {
			lo := int(slots[i].off)
			hi := lo + int(slots[i].n)
			if lo > hi || hi > len(slab) {
				return nil
			}
			return slab[lo:hi:hi]
		}
	}
	return nil
}

// Lookup returns the (rule, domain) targets for a service endpoint on a
// day. Days outside the compiled range clamp to its edges. The caller
// must not modify the returned slice.
//
// haystack:hotpath — runs once per observation.
func (d *Dictionary) Lookup(day simtime.Day, ip netip.Addr, port uint16) []Target {
	if day < d.minDay {
		day = d.minDay
	}
	if day > d.maxDay {
		day = d.maxDay
	}
	if ip.Is4() {
		if i := int(day - d.minDay); i >= 0 && i < len(d.v4) {
			return d.v4[i].lookup(v4Key(ip, port), d.targets)
		}
		return nil
	}
	return d.days[day][ipPort{ip: ip, port: port}]
}

// RuleIndex returns the index of a rule by name (-1 if dropped or
// unknown).
func (d *Dictionary) RuleIndex(name string) int {
	if i, ok := d.byName[name]; ok {
		return i
	}
	return -1
}

// HitlistSize returns the number of (IP, port) keys on a day.
func (d *Dictionary) HitlistSize(day simtime.Day) int {
	if day < d.minDay {
		day = d.minDay
	}
	if day > d.maxDay {
		day = d.maxDay
	}
	return len(d.days[day])
}

// Levels returns how many rules exist per detection level.
func (d *Dictionary) Levels() map[catalog.Level]int {
	out := map[catalog.Level]int{}
	for i := range d.Rules {
		out[d.Rules[i].Level]++
	}
	return out
}

// Verify performs internal consistency checks: every rule references a
// resolvable parent, domain lists are unique, and every (rule, bit)
// pair appearing in the hitlist is valid. It exists so callers can
// assert dictionary health after compilation.
func (d *Dictionary) Verify() error {
	for i := range d.Rules {
		r := &d.Rules[i]
		if r.Parent < -1 || r.Parent >= len(d.Rules) {
			return fmt.Errorf("rules: %s has out-of-range parent %d", r.Name, r.Parent)
		}
		seen := map[string]bool{}
		for _, dom := range r.Domains {
			if seen[dom] {
				return fmt.Errorf("rules: %s lists domain %s twice", r.Name, dom)
			}
			seen[dom] = true
		}
		if len(r.Domains) > 128 {
			return fmt.Errorf("rules: %s monitors %d domains (engine bitset limit is 128)", r.Name, len(r.Domains))
		}
	}
	for day, m := range d.days {
		for k, ts := range m {
			for _, t := range ts {
				if t.Rule < 0 || t.Rule >= len(d.Rules) {
					return fmt.Errorf("rules: day %v key %v has bad rule %d", day, k, t.Rule)
				}
				if t.Bit < 0 || t.Bit >= len(d.Rules[t.Rule].Domains) {
					return fmt.Errorf("rules: day %v key %v has bad bit %d", day, k, t.Bit)
				}
			}
		}
	}
	return nil
}

// DomainIPs exposes a rule domain's hitlist addresses on one day
// (diagnostics and tests).
func (d *Dictionary) DomainIPs(day simtime.Day, ruleName, domain string) []netip.Addr {
	ri := d.RuleIndex(ruleName)
	if ri < 0 {
		return nil
	}
	bit := -1
	for i, dom := range d.Rules[ri].Domains {
		if dom == domain {
			bit = i
			break
		}
	}
	if bit < 0 {
		return nil
	}
	var out []netip.Addr
	for k, ts := range d.days[day] {
		for _, t := range ts {
			if t.Rule == ri && t.Bit == bit {
				out = append(out, k.ip)
			}
		}
	}
	return out
}
