package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanName indexes the benchmark's own span names.
type spanName uint8

const (
	spanBatch spanName = iota // one caller batch: generate, call, check
	spanCorePush
	spanCorePop
	spanEngineSubmit
	spanWireDo
	spanClusterPush
	spanClusterPopMin
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"batch", "core.push", "core.pop", "engine.submit", "wire.do", "cluster.push", "cluster.popmin",
}

// span is one timed call across a layer boundary. Spans of one batch
// share req; parent is the id of the enclosing span (0 for a root).
type span struct {
	id, parent, req uint64
	name            spanName
	start, end      int64 // ns since the run's epoch
}

// spanEpoch anchors span timestamps on the monotonic clock.
var spanEpoch = time.Now()

func spanNow() int64 { return int64(time.Since(spanEpoch)) }

// spanBuf collects one caller's spans in memory. Capacity is reserved
// before the timed loop, so recording allocates nothing there. A nil
// spanBuf records nothing: the untraced path.
type spanBuf struct {
	caller uint64
	next   uint64
	req    uint64
	spans  []span
}

func newSpanBuf(caller, capacity int) *spanBuf {
	return &spanBuf{caller: uint64(caller), spans: make([]span, 0, capacity)}
}

// beginRequest opens a batch's root span under a fresh request id and
// returns the root's id, the parent of the batch's layer calls.
func (b *spanBuf) beginRequest() (idx int, id uint64) {
	if b == nil {
		return -1, 0
	}
	b.req++
	idx = b.begin(spanBatch, 0)
	return idx, b.spans[idx].id
}

// begin opens a span and returns its index for end.
func (b *spanBuf) begin(name spanName, parent uint64) int {
	if b == nil {
		return -1
	}
	b.next++
	b.spans = append(b.spans, span{
		id:     b.caller<<56 | b.next,
		parent: parent,
		req:    b.caller<<56 | b.req,
		name:   name,
		start:  spanNow(),
	})
	return len(b.spans) - 1
}

func (b *spanBuf) end(i int) {
	if b == nil || i < 0 {
		return
	}
	b.spans[i].end = spanNow()
}

// spanStats aggregates spans of one name: call count, total duration
// and total self time.
type spanStats struct {
	n     int
	total int64
	self  int64
}

func (s spanStats) meanNs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (the
// concurrent halves of a fan-out) are counted once, and a child's part
// outside its parent is ignored.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.id] = (s.end - s.start) - covered(s.start, s.end, children[s.id])
	}
	return self
}

// covered measures the union of the intervals, clipped to [lo, hi].
func covered(lo, hi int64, iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// aggregate sums spans by name.
func aggregate(spans []span) [numSpanNames]spanStats {
	var agg [numSpanNames]spanStats
	self := selfTimes(spans)
	for _, s := range spans {
		a := &agg[s.name]
		a.n++
		a.total += s.end - s.start
		a.self += self[s.id]
	}
	return agg
}

// spanJSON is the written form of one span.
type spanJSON struct {
	Rung   string `json:"rung"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeSpans writes every rung's spans as one JSON document, after the
// run, so the file I/O never overlaps a timed phase.
func writeSpans(path string, rungs []string, spans [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if _, err := fmt.Fprintln(w, `{"schema":"stackbench-spans/v1","spans":[`); err != nil {
		f.Close()
		return err
	}
	first := true
	for i, ss := range spans {
		for _, s := range ss {
			if !first {
				w.WriteString(",")
			}
			first = false
			if err := enc.Encode(spanJSON{rungs[i], s.id, s.parent, s.req, spanNames[s.name], s.start, s.end}); err != nil {
				f.Close()
				return err
			}
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
