package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one benchmark-side or program-side interval of the traced run.
// Times are nanoseconds since the run's base instant, so spans from the
// client, the router, the shards and the solver tracers share one axis.
type span struct {
	Op     int    `json:"op"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory until the run ends. A nil
// recorder records nothing, so the untraced path pays one nil check.
type recorder struct {
	base time.Time

	mu    sync.Mutex
	next  uint64
	spans []span
}

func newRecorder(base time.Time) *recorder { return &recorder{base: base} }

// now is the recorder's clock: nanoseconds since base.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.base).Nanoseconds()
}

// newID mints a span id unique within the run.
func (r *recorder) newID() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return fmt.Sprintf("b%06x", r.next)
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// around records fn as a span named name under parent and returns its id.
func (r *recorder) around(op int, parent, name string, fn func(id string)) string {
	if r == nil {
		fn("")
		return ""
	}
	id := r.newID()
	start := r.now()
	fn(id)
	r.add(span{Op: op, ID: id, Parent: parent, Name: name, Start: start, End: r.now()})
	return id
}

// addEvents attaches a solver tracer's phase events as children of parent.
// The tracer must run on the recorder's clock (obs.WithClock(r.now)).
func (r *recorder) addEvents(op int, parent string, evs []obs.Event) {
	if r == nil {
		return
	}
	for _, ev := range evs {
		r.add(span{Op: op, ID: r.newID(), Parent: parent, Name: "phase." + ev.Phase.String(),
			Start: ev.StartNS, End: ev.EndNS})
	}
}

// reset drops every span recorded so far.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// write stores the spans as JSON at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the summed self time in nanoseconds: each
// span's duration minus the part of its interval its children cover (the
// union of the children's intervals clipped to the parent, so overlapping
// children are not subtracted twice).
func selfTimes(spans []span) map[string]int64 {
	children := map[string][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the intervals.
func covered(lo, hi int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// flightSpans returns the durations in milliseconds of the spans named in
// names, taken from the job records of a flight dump whose trace id is in
// traces (every record when traces is nil).
func flightSpans(d obs.FlightDump, traces map[string]bool, names ...string) map[string][]float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string][]float64{}
	for _, jr := range d.Jobs {
		if traces != nil && !traces[jr.TraceID] {
			continue
		}
		for _, s := range jr.Spans {
			if want[s.Name] {
				out[s.Name] = append(out[s.Name], float64(s.EndUnixNS-s.StartUnixNS)/1e6)
			}
		}
	}
	return out
}

// programSpans converts a flight dump's job spans into recorder spans on the
// run's time axis, keeping the program's own span and parent ids, so the
// shard and router spans hang under the client span that caused them.
func programSpans(d obs.FlightDump, traces map[string]int, base time.Time) []span {
	var out []span
	for _, jr := range d.Jobs {
		op, ok := traces[jr.TraceID]
		if !ok {
			continue
		}
		for _, s := range jr.Spans {
			out = append(out, span{Op: op, ID: s.SpanID, Parent: s.ParentID,
				Name:  s.Service + "." + s.Name,
				Start: s.StartUnixNS - base.UnixNano(), End: s.EndUnixNS - base.UnixNano()})
		}
	}
	return out
}

// routerOverhead matches client round trips to shard handler times by job key
// and returns round trip minus handler time for every key seen on both sides.
func routerOverhead(rttMS, handlerMS map[string]float64) []float64 {
	keys := make([]string, 0, len(rttMS))
	for k := range rttMS {
		if _, ok := handlerMS[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]float64, 0, len(keys))
	for _, k := range keys {
		out = append(out, rttMS[k]-handlerMS[k])
	}
	return out
}
