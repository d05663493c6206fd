package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder's epoch; Parent is the index of the
// span that caused this one (-1 for a root); spans of one request
// share Run.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    string `json:"run,omitempty"`
}

// recorder keeps spans in memory until the benchmark ends. A nil
// recorder is tracing switched off: begin returns noSpan and end is a
// no-op, so the untraced run executes the same call sequence minus the
// clock reads and the append.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

const noSpan = -1

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, parent int, run string) int {
	if r == nil {
		return noSpan
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Run: run})
	r.mu.Unlock()
	return id
}

// end closes span id; a non-empty run overrides the one given at
// begin (a lease learns which run it serves only when it returns).
func (r *recorder) end(id int, run string) {
	if r == nil || id == noSpan {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	if run != "" {
		r.spans[id].Run = run
	}
	r.mu.Unlock()
}

// rename relabels an open span once its outcome is known.
func (r *recorder) rename(id int, name string) {
	if r == nil || id == noSpan {
		return
	}
	r.mu.Lock()
	r.spans[id].Name = name
	r.mu.Unlock()
}

// setInterval places span id at [start, end]: for a phase the harness
// learns about only after the fact, from what the callee reports.
func (r *recorder) setInterval(id int, start, end time.Time) {
	if r == nil || id == noSpan {
		return
	}
	r.mu.Lock()
	r.spans[id].Start = int64(start.Sub(r.epoch))
	r.spans[id].End = int64(end.Sub(r.epoch))
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span index, the span's duration minus the
// part of its interval that its child spans cover. Overlapping
// children are counted once and children are clipped to the parent.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := int64(0), s.Start
		for _, v := range ivs {
			if v.hi <= edge {
				continue
			}
			covered += v.hi - max(v.lo, edge)
			edge = v.hi
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanDurations collects the durations of every span called name.
func spanDurations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += time.Duration(d)
	}
	return out
}

// writeTrace dumps the spans with their self times.
func writeTrace(path string, workload string, spans []span) error {
	type outSpan struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := selfTimes(spans)
	out := struct {
		Workload string    `json:"workload"`
		Spans    []outSpan `json:"spans"`
	}{Workload: workload, Spans: make([]outSpan, len(spans))}
	for i, s := range spans {
		out.Spans[i] = outSpan{s, self[i]}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
