package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span levels, outermost first. With one closed-loop client at most one span
// per level is open at a time, so a new span's parent is the innermost open
// span of a lower level: the benchmark needs no context from inside the
// program to link a handler span to the client call that caused it.
const (
	levelCycle = iota
	levelOp
	levelLayer
	levelGateway
	levelServer
	levelReplica
	numLevels
)

// span is one timed interval at a layer boundary. Times are nanoseconds since
// the tracer started; Cycle is the identifier all spans of one cycle share.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Cycle  int    `json:"cycle"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. It records nothing until
// enabled, which is how the untraced run skips all of this.
type tracer struct {
	mu     sync.Mutex
	on     bool
	t0     time.Time
	spans  []span
	open   [numLevels]int // span id open at each level, 0 = none
	cycle  int
	warmup int // spans of cycles below this are excluded from summaries
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin switches recording on or off for a round whose first warmup cycles
// are left out of the summaries.
func (t *tracer) begin(on bool, warmup int) {
	t.mu.Lock()
	t.on, t.warmup = on, warmup
	t.mu.Unlock()
}

// start opens a span and returns its id, or 0 while tracing is off.
func (t *tracer) start(level int, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	parent := 0
	for l := level - 1; l >= 0 && parent == 0; l-- {
		parent = t.open[l]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cycle: t.cycle, Start: now})
	t.open[level] = id
	return id
}

func (t *tracer) end(level, id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	if t.open[level] == id {
		t.open[level] = 0
	}
}

func (t *tracer) setCycle(n int) {
	t.mu.Lock()
	t.cycle = n
	t.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of it
// that its children cover. Children may overlap each other or run past the
// parent's end (a handler returns just after its client has the reply), so
// the covered part is the union of the child intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// summary gives, per span name, the durations and self times in milliseconds
// of the spans recorded after warm-up.
func (t *tracer) summary() (busy, self map[string][]float64) {
	busy, self = map[string][]float64{}, map[string][]float64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := selfTimes(t.spans)
	for _, s := range t.spans {
		if s.Cycle < t.warmup || s.End == 0 {
			continue
		}
		busy[s.Name] = append(busy[s.Name], float64(s.End-s.Start)/1e6)
		self[s.Name] = append(self[s.Name], float64(st[s.ID])/1e6)
	}
	return
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	blob, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
