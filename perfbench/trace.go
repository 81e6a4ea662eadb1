package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanID indexes a span in its tracer; noSpan is a root span's parent
// and what a nil tracer hands out.
type spanID int32

const noSpan spanID = -1

// span is one timed call into a layer, recorded by the benchmark around
// a public function. Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent spanID `json:"parent"`
	Req    int    `json:"req"`
}

// layer is the module a span belongs to: the name up to the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the untraced passes run
// the very same code without the bookkeeping.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start(name string, parent spanID, req int) spanID {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Req: req})
	return spanID(len(t.spans) - 1)
}

func (t *tracer) end(id spanID) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds were taken elsewhere, such as an HTTP
// exchange timed inside a RoundTripper.
func (t *tracer) record(name string, parent spanID, req int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(),
		End: end.Sub(t.epoch).Nanoseconds(), Parent: parent, Req: req})
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may nest, overlap
// one another (concurrent calls under one request) or stick out of the
// parent; only the union of their intervals clipped to the parent
// counts, so no instant is subtracted twice.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent != noSpan {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		for j, x := range iv {
			switch {
			case j == 0:
				curLo, curHi = x[0], x[1]
			case x[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			case x[1] > curHi:
				curHi = x[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count  int
	SelfNs int64
	InclNs int64
}

// profile is the per-name and per-layer breakdown of one traced pass.
type profile struct {
	byName map[string]*spanStat
	// roots counts the root spans (one per operation); rootNs sums
	// their durations.
	roots  int
	rootNs int64
	// layerSelfNs sums self time by layer.
	layerSelfNs map[string]int64
}

// benchLayer names the spans that belong to the benchmark itself (one
// root per operation); their self time is glue, not a program layer.
const benchLayer = "bench"

func newProfile(spans []span) profile {
	self := selfTimes(spans)
	p := profile{byName: map[string]*spanStat{}, layerSelfNs: map[string]int64{}}
	for i, s := range spans {
		st := p.byName[s.Name]
		if st == nil {
			st = &spanStat{}
			p.byName[s.Name] = st
		}
		st.Count++
		st.SelfNs += self[i]
		st.InclNs += s.End - s.Start
		p.layerSelfNs[s.layer()] += self[i]
		if s.Parent == noSpan {
			p.roots++
			p.rootNs += s.End - s.Start
		}
	}
	return p
}

// selfNs is the total self time of the named span.
func (p profile) selfNs(name string) int64 {
	if st := p.byName[name]; st != nil {
		return st.SelfNs
	}
	return 0
}

// meanSelfUs is the mean self time of the named span in microseconds.
func (p profile) meanSelfUs(name string) float64 {
	st := p.byName[name]
	if st == nil || st.Count == 0 {
		return 0
	}
	return float64(st.SelfNs) / float64(st.Count) / 1e3
}

// meanInclUs is the mean duration of the named span in microseconds.
func (p profile) meanInclUs(name string) float64 {
	st := p.byName[name]
	if st == nil || st.Count == 0 {
		return 0
	}
	return float64(st.InclNs) / float64(st.Count) / 1e3
}

// coverage is the share of the operations' time that the program's
// layers account for: the part of the root spans (one per operation)
// that their child spans cover. Serially this is the summed self time of
// every named span over the traced wall time; with concurrent children
// it counts each instant once.
func (p profile) coverage() float64 {
	if p.rootNs == 0 {
		return 0
	}
	return 1 - float64(p.layerSelfNs[benchLayer])/float64(p.rootNs)
}

// writeSpans writes the spans of every traced pass as JSON.
func writeSpans(path string, passes map[string][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(passes)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
