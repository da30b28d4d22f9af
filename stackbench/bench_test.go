package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

func stream(seed, s uint64, ranks rankKind, batches, batch int) []bop {
	g := newGen(seed, s, ranks, 0)
	var all []bop
	b := make([]bop, batch)
	for i := 0; i < batches; i++ {
		g.fill(b, batch/2)
		all = append(all, b...)
	}
	return all
}

func TestSameSeedSameStream(t *testing.T) {
	for _, ranks := range []rankKind{ranksUniform16, ranksMonotone} {
		a := stream(7, 3, ranks, 50, 16)
		b := stream(7, 3, ranks, 50, 16)
		if !slices.Equal(a, b) {
			t.Fatalf("ranks %d: the same seed gave different op streams", ranks)
		}
		if c := stream(8, 3, ranks, 50, 16); slices.Equal(a, c) {
			t.Fatalf("ranks %d: seeds 7 and 8 gave the same op stream", ranks)
		}
		if c := stream(7, 4, ranks, 50, 16); slices.Equal(a, c) {
			t.Fatalf("ranks %d: streams 3 and 4 gave the same op stream", ranks)
		}
	}
}

func TestBatchesBalancedAndElementsUnique(t *testing.T) {
	for _, w := range workloads {
		g := newGen(1, 0, w.ranks, 1)
		b := make([]bop, w.batch)
		seen := map[uint64]bool{}
		for i := 0; i < 100; i++ {
			g.fill(b, w.batch/2)
			pushes := 0
			for j, o := range b {
				if o.push {
					pushes++
					if j >= w.batch/2 {
						t.Fatalf("%s: push after a pop in batch %d", w.name, i)
					}
					if seen[o.meta] {
						t.Fatalf("%s: element meta %#x generated twice", w.name, o.meta)
					}
					seen[o.meta] = true
				}
			}
			if pushes*2 != w.batch {
				t.Fatalf("%s: batch %d has %d pushes of %d ops", w.name, i, pushes, w.batch)
			}
		}
	}
}

func TestMonotoneRanksStayInWindow(t *testing.T) {
	g := newGen(1, 0, ranksMonotone, 0)
	for i := uint64(0); i < 1000; i++ {
		v, _ := g.element()
		if lo := i * monotoneStep; v < lo || v >= lo+monotoneWindow {
			t.Fatalf("push %d: rank %d outside [%d, %d)", i, v, lo, lo+monotoneWindow)
		}
	}
}

func TestPercentile(t *testing.T) {
	var s []int64
	for i := int64(1); i <= 100; i++ {
		s = append(s, i)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{5, 7, 9}, 0.5); got != 7 {
		t.Errorf("median of 3 samples = %d, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	vals := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(vals); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	sp := summarize(vals)
	if sp.median != 5.5 || sp.iqrFrac != (8.25-2.75)/5.5 || sp.rangeFrac != 9/5.5 {
		t.Errorf("summarize(1..10) = %+v", sp)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(1..4) = %v, want 2.5", m)
	}
}

// bag builds a tally of pushes and a drain holding all of them, sorted.
func bag(n int) (tally, drained) {
	var tl tally
	var q []core.Element
	for i := 0; i < n; i++ {
		el := core.Element{Value: uint64(i * 3 % 17), Meta: uint64(i)}
		tl.pushed.add(el.Value, el.Meta)
		q = append(q, el)
	}
	slices.SortFunc(q, func(a, b core.Element) int { return int(a.Value) - int(b.Value) })
	return tl, drained{queues: [][]core.Element{q}}
}

func TestVerifyAcceptsConservedSortedDrain(t *testing.T) {
	tl, d := bag(100)
	// Pop five elements before the drain: they move from the queue's
	// drain to the popped multiset.
	for _, el := range d.queues[0][:5] {
		tl.popped.add(el.Value, el.Meta)
	}
	d.queues[0] = d.queues[0][5:]
	if bad := verify(tl, d, []int{100}, []int{95}); len(bad) != 0 {
		t.Fatalf("clean run flagged: %v", bad)
	}
}

func TestVerifyCatchesDroppedAndDuplicatedElement(t *testing.T) {
	tl, d := bag(100)
	dropped := drained{queues: [][]core.Element{slices.Delete(slices.Clone(d.queues[0]), 40, 41)}}
	if bad := verify(tl, dropped, []int{100}, []int{99}); !hasProblem(bad, "conservation") {
		t.Errorf("dropped element not caught: %v", bad)
	}
	q := d.queues[0]
	dup := slices.Insert(slices.Clone(q), 41, q[40])
	if bad := verify(tl, drained{queues: [][]core.Element{dup}}, []int{100}, []int{101}); !hasProblem(bad, "conservation") {
		t.Errorf("duplicated element not caught: %v", bad)
	}
	// A swapped element keeps the count but not the fingerprint.
	swapped := slices.Clone(q)
	swapped[10].Meta ^= 1 << 40
	if bad := verify(tl, drained{queues: [][]core.Element{swapped}}, []int{100}, []int{100}); !hasProblem(bad, "conservation") {
		t.Errorf("altered element not caught: %v", bad)
	}
}

func TestVerifyCatchesUnsortedDrainMirrorAndDrift(t *testing.T) {
	tl, d := bag(100)
	q := slices.Clone(d.queues[0])
	q[0], q[99] = q[99], q[0]
	if bad := verify(tl, drained{queues: [][]core.Element{q}}, []int{100}, []int{100}); !hasProblem(bad, "out of order") {
		t.Errorf("unsorted drain not caught: %v", bad)
	}
	m := drained{queues: d.queues, mirror: [][]core.Element{d.queues[0][1:]}}
	if bad := verify(tl, m, []int{100}, []int{100}); !hasProblem(bad, "follower") {
		t.Errorf("follower mismatch not caught: %v", bad)
	}
	if bad := verify(tl, d, []int{100}, []int{70}); !hasProblem(bad, "occupancy") {
		t.Errorf("occupancy drift not caught: %v", bad)
	}
}

func hasProblem(bad []string, what string) bool {
	for _, b := range bad {
		if strings.Contains(b, what) {
			return true
		}
	}
	return false
}

func TestSelfTimeOnSyntheticTree(t *testing.T) {
	// root [0,100): children a [10,30) and b [20,50) overlap on
	// [20,30), and c [90,120) runs past the root's end. a has a child
	// d [12,18). Self times: root 100-(40+10) = 50, a 20-6 = 14, b 30,
	// c 30, d 6.
	spans := []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 30},
		{id: 3, parent: 1, start: 20, end: 50},
		{id: 4, parent: 1, start: 90, end: 120},
		{id: 5, parent: 2, start: 12, end: 18},
	}
	want := map[uint64]int64{1: 50, 2: 14, 3: 30, 4: 30, 5: 6}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time = %d, want %d", id, got[id], w)
		}
	}
}

func TestSpanBufRecordsParentsAndRequests(t *testing.T) {
	sb := newSpanBuf(1, 8)
	root, id := sb.beginRequest()
	child := sb.begin(spanEngineSubmit, id)
	sb.end(child)
	sb.end(root)
	root2, _ := sb.beginRequest()
	sb.end(root2)
	s := sb.spans
	if len(s) != 3 || s[1].parent != s[0].id || s[0].parent != 0 {
		t.Fatalf("bad span tree: %+v", s)
	}
	if s[0].req != s[1].req || s[2].req == s[0].req {
		t.Fatalf("request ids not shared within a batch or reused across batches: %+v", s)
	}
	agg := aggregate(s)
	if agg[spanBatch].n != 2 || agg[spanEngineSubmit].n != 1 {
		t.Fatalf("aggregate counts: %+v", agg)
	}
	var nilBuf *spanBuf
	if i := nilBuf.begin(spanWireDo, 0); i != -1 {
		t.Fatalf("nil spanBuf recorded a span")
	}
	nilBuf.end(-1)
}

func TestCoreTargetEndToEnd(t *testing.T) {
	// A small workload through the bare-tree target: the round trip of
	// prefill, balanced traffic, drain and verify must come out clean.
	w := workload{name: "tiny", queues: 2, order: 2, levels: 6, callers: 1, batch: 8, ranks: ranksUniform16}
	cs := newCallers(w, layerCore, 3, 0)
	tg, err := w.build(layerCore, probes{})
	if err != nil {
		t.Fatal(err)
	}
	runPhase(tg, cs, phase{ops: w.prefill()})
	start := tg.occupancy()
	runPhase(tg, cs, phase{ops: 800, balanced: true, record: true})
	end := tg.occupancy()
	d, err := tg.stop()
	if err != nil {
		t.Fatal(err)
	}
	tl := tallyOf(cs)
	if tl.failed() != 0 {
		t.Fatalf("failures: %v", tl.causes)
	}
	if bad := verify(tl, d, start, end); len(bad) != 0 {
		t.Fatalf("verify: %v", bad)
	}
	if n := len(cs[0].lat); n != 100 {
		t.Fatalf("recorded %d batch samples, want 100", n)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, m := range endToEnd {
		e2e = append(e2e, m.name+" "+m.unit)
	}
	for _, m := range (ladder{}).metrics() {
		layers = append(layers, m.name+" "+m.unit)
	}
	var wantE2E, wantLayers []string
	for _, m := range spec.EndToEnd {
		wantE2E = append(wantE2E, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		wantLayers = append(wantLayers, m.Name+" "+m.Unit)
	}
	if !slices.Equal(e2e, wantE2E) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", e2e, wantE2E)
	}
	if !slices.Equal(layers, wantLayers) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", layers, wantLayers)
	}
}
