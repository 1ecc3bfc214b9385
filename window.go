package haystack

// Aggregation windows: Rotate cuts the detector's current window into
// an immutable WindowResult and resets detection state for the next
// one, the way the paper's §6 figures aggregate per hour and per day.
// WindowConfig drives Rotate on a period from Listen/ListenAndDetect;
// export.go writes WindowResults out in the §2.1-anonymized schema.

import (
	"slices"
	"strings"
	"time"

	"repro/internal/detect"
	"repro/internal/rules"
)

// WindowConfig configures periodic aggregation-window rotation for a
// listening deployment (ListenConfig.Window).
type WindowConfig struct {
	// Every is the rotation period — the paper's hourly and daily
	// views use time.Hour and 24 * time.Hour. Zero disables periodic
	// rotation; with OnRotate still set, the whole run is one window
	// delivered at Close.
	Every time.Duration
	// OnRotate receives every closed window, including the final
	// partial window when the server shuts down. It runs on the
	// rotator goroutine (or the closing goroutine for the final
	// window): a slow callback delays the next rotation, never
	// ingestion.
	OnRotate func(WindowResult)
}

// WindowResult is the atomic end-of-window cut Rotate returns: every
// detection of the closing window plus per-rule counts and the
// window's slice of the transport counters. After Rotate the detector
// starts the next window empty, with feeds and template caches
// intact.
//
// haystack:metrics-struct — every exported field must be filled by a
// haystack:metrics-export function (enforced by haystacklint).
type WindowResult struct {
	// Seq is the window's sequence number (0 for the detector's first
	// window); DetectionEvents carry it as Window.
	Seq uint64 `json:"seq"`
	// Start and End are the wall-clock bounds of the window: creation
	// or previous rotation to this rotation.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Detections lists every (subscriber, rule) detection of the
	// window, sorted by subscriber then rule name — the same order
	// Detector.Detections uses.
	Detections []Detection `json:"detections"`
	// RuleCounts maps rule name → detected subscribers, for every rule
	// that fired this window.
	RuleCounts map[string]int `json:"rule_counts,omitempty"`
	// Subscribers is how many subscribers had at least one dictionary
	// hit this window; DetectedSubscribers how many had at least one
	// fired rule.
	Subscribers         int `json:"subscribers"`
	DetectedSubscribers int `json:"detected_subscribers"`
	// Records is the number of decoded records delivered to the
	// pipeline during the window (RecordsIPv4 + RecordsIPv6);
	// SkippedRecords and EventsDropped are the window's deltas of the
	// corresponding DetectorStats counters.
	Records        uint64 `json:"records"`
	RecordsIPv4    uint64 `json:"records_ipv4"`
	RecordsIPv6    uint64 `json:"records_ipv6"`
	SkippedRecords uint64 `json:"skipped_records"`
	EventsDropped  uint64 `json:"events_dropped"`
}

// windowBaseline snapshots the cumulative counters at the last window
// cut, so Rotate can report per-window deltas.
type windowBaseline struct {
	v4, v6, skipped, evDropped uint64
}

// cutBaselineLocked advances the delta baseline and the window start.
// Caller holds rotateMu.
func (d *Detector) cutBaselineLocked(now time.Time) windowBaseline {
	prev := d.base
	d.base = windowBaseline{
		v4:        d.recordsV4.Load(),
		v6:        d.recordsV6.Load(),
		skipped:   d.skipped.Load(),
		evDropped: d.eventsDropped.Load(),
	}
	d.windowStart = now
	return prev
}

// Rotate atomically ends the current aggregation window: it
// synchronizes the pipeline, captures the window's detections,
// per-rule counts, and stats deltas, and resets detection state for
// the next window. Feeds and their template caches survive, as they
// would across windows in a deployment. Like Reset, an exact cut
// requires quiescent feeds — observations in flight may land on
// either side of the boundary. Rotations are serialized; each returns
// a distinct, consecutive Seq.
//
// haystack:metrics-export
func (d *Detector) Rotate() WindowResult {
	d.rotateMu.Lock()
	defer d.rotateMu.Unlock()
	snap, seq := d.pipe.Rotate()
	now := time.Now()
	dict := d.pipe.Dictionary()

	res := WindowResult{
		Seq:                 seq,
		Start:               d.windowStart,
		End:                 now,
		Subscribers:         snap.Subscribers(),
		DetectedSubscribers: snap.CountAnyDetected(),
	}
	res.Detections = d.detectionRows(snap.Detections())
	for i := range dict.Rules {
		if n := snap.CountDetected(i); n > 0 {
			if res.RuleCounts == nil {
				res.RuleCounts = make(map[string]int)
			}
			res.RuleCounts[dict.Rules[i].Name] = n
		}
	}

	base := d.cutBaselineLocked(now)
	res.RecordsIPv4 = d.base.v4 - base.v4
	res.RecordsIPv6 = d.base.v6 - base.v6
	res.Records = res.RecordsIPv4 + res.RecordsIPv6
	res.SkippedRecords = d.base.skipped - base.skipped
	res.EventsDropped = d.base.evDropped - base.evDropped
	return res
}

// detectionRows presents a snapshot's detections, ordered by
// (subscriber, rule index), in the canonical order of Detections and
// WindowResult: subscriber, then rule name. Only each subscriber's run
// needs re-ordering, by the rules' name rank.
func (d *Detector) detectionRows(list []detect.Detection) []Detection {
	if len(list) == 0 {
		return nil
	}
	dict := d.pipe.Dictionary()
	out := make([]Detection, 0, len(list))
	var run []detect.Detection
	for len(list) > 0 {
		n := 1
		for n < len(list) && list[n].Sub == list[0].Sub {
			n++
		}
		run = append(run[:0], list[:n]...)
		list = list[n:]
		for i := 1; i < len(run); i++ {
			for j := i; j > 0 && d.ruleRank[run[j].Rule] < d.ruleRank[run[j-1].Rule]; j-- {
				run[j], run[j-1] = run[j-1], run[j]
			}
		}
		for _, dt := range run {
			r := &dict.Rules[dt.Rule]
			out = append(out, Detection{
				Subscriber: uint64(dt.Sub),
				Rule:       r.Name,
				Level:      r.Level.String(),
				First:      dt.First.Time(),
			})
		}
	}
	return out
}

// ruleNameRank returns each rule's position in rule-name order.
func ruleNameRank(dict *rules.Dictionary) []int {
	byName := make([]int, len(dict.Rules))
	for i := range byName {
		byName[i] = i
	}
	slices.SortFunc(byName, func(a, b int) int { return strings.Compare(dict.Rules[a].Name, dict.Rules[b].Name) })
	rank := make([]int, len(byName))
	for r, i := range byName {
		rank[i] = r
	}
	return rank
}
