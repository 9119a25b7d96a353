package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; set-up
// spans carry Op -1. Parent is the ID of the innermost span open when
// this one began (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written once the run ends so
// file I/O never lands inside a measured call. A nil tracer records
// nothing, which lets set-up code run the same way traced or not.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// setOp attributes the spans begun from now on to op id.
func (t *tracer) setOp(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = id
	t.mu.Unlock()
}

// begin opens a span named name under the innermost open span and
// returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	t.mu.Unlock()
	return func() {
		end := int64(time.Since(t.t0))
		t.mu.Lock()
		t.spans[id-1].End = end
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i] == id {
				t.open = append(t.open[:i], t.open[i+1:]...)
				break
			}
		}
		t.mu.Unlock()
	}
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that its children cover.
// Overlapping children are merged so concurrent work is not subtracted
// twice. Span IDs must equal their 1-based position, as tracer assigns.
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans)+1)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		curStart, curEnd := int64(0), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		out[i] = s.dur() - covered
	}
	return out
}

// layerRow aggregates every span of one name.
type layerRow struct {
	Name  string
	Calls int
	Busy  int64 // summed span durations, ns
	Self  int64 // summed self times, ns
}

// layerTable aggregates spans by name, busiest first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Calls++
		r.Busy += s.dur()
		r.Self += self[i]
	}
	rows := make([]layerRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Busy != rows[b].Busy {
			return rows[a].Busy > rows[b].Busy
		}
		return rows[a].Name < rows[b].Name
	})
	return rows
}

// writeTable prints the per-layer table: calls, busy and self time.
func writeTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-34s %7s %12s %12s\n", "span", "calls", "busy_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %7d %12.3f %12.3f\n", r.Name, r.Calls, float64(r.Busy)/1e6, float64(r.Self)/1e6)
	}
}

// writeSpans stores the spans as JSON at path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
