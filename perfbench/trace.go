package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names recorded around the benchmark's calls into the program.
const (
	spanStep       = "step"
	spanWindow     = "window"
	spanPut        = "client.put"
	spanGet        = "client.get"
	spanEndStep    = "cluster.end_time_step"
	spanKill       = "cluster.kill"
	spanReplace    = "cluster.replace"
	spanRecoverSrv = "client.recover_server"
)

// span is one timed call. Start and End are nanoseconds since the tracer
// started; Parent is 0 for a root span. Spans of one operation share Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs measure without its cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span ID, so a parent can hand it to children before it
// ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved ID (0 reserves one).
func (t *tracer) record(id int64, name string, parent, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// spanStats summarises the spans of one name: count, mean duration and
// mean self time.
type spanStats struct {
	n         int
	meanDur   time.Duration
	meanSelf  time.Duration
	totalSelf time.Duration
	totalDur  time.Duration
	durations samples
}

func summarize(spans []span, self map[int64]time.Duration) map[string]*spanStats {
	out := make(map[string]*spanStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.n++
		st.totalDur += d
		st.totalSelf += self[s.ID]
	}
	for _, st := range out {
		st.meanDur = st.totalDur / time.Duration(st.n)
		st.meanSelf = st.totalSelf / time.Duration(st.n)
	}
	return out
}
