package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpansPerName caps the spans a traced run keeps for writing out
// under each span name, so the generator's sends do not crowd out the
// layers' calls; layer figures are accumulated from every call
// regardless.
const maxSpansPerName = 1 << 15

// span is one timed call into a layer: name, start and end (ns since
// the tracer's epoch), the index of the span that caused it (-1 for a
// root) and the trace id, the datagram index.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Trace  int64  `json:"trace"`
}

// tracer keeps spans in memory; write saves them when the run ends.
// span is safe for concurrent use.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	spans  []span
	byName map[string]int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), byName: map[string]int{}} }

// span records a call that started at s and took d, returning its
// index for children (-1 once the cap is reached).
func (t *tracer) span(name string, parent int32, trace int64, s time.Time, d time.Duration) int32 {
	if t == nil {
		return -1
	}
	st := int64(s.Sub(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byName[name] >= maxSpansPerName {
		return -1
	}
	t.byName[name]++
	t.spans = append(t.spans, span{Name: name, Start: st, End: st + int64(d), Parent: parent, Trace: trace})
	return int32(len(t.spans) - 1)
}

// write saves the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	return path, f.Close()
}
