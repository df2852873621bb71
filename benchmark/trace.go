package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program. Spans of one query share Query; Parent is the id of the span
// that made the call (0 at the top). Times are nanoseconds since the
// recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced path runs the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span // span id i is spans[i-1]
	nextQ int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now()}
}

// query allocates a new query id.
func (r *recorder) query() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextQ++
	return r.nextQ
}

// start opens a span and returns its id.
func (r *recorder) start(parent, query int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: now, End: now})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// add records an already-measured span, such as one reconstructed from
// the daemon's job timestamps.
func (r *recorder) add(parent, query int, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Query: query, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write saves the spans as a JSON array.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
			continue
		}
		curHi = max(curHi, x[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// coverage is the share of the named top-level spans' time that their
// children account for.
func coverage(spans []span, name string) float64 {
	self := selfTimes(spans)
	var dur, uncovered int64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == name {
			dur += s.dur()
			uncovered += self[s.ID]
		}
	}
	if dur == 0 {
		return 0
	}
	return 1 - float64(uncovered)/float64(dur)
}
