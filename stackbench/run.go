package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
)

// caller is one closed-loop client: it sends a batch, waits for the
// reply, checks it, and only then sends the next.
type caller struct {
	idx            int
	g              *gen
	b              []bop
	res            []bres
	pushed, popped multiset
	causes         [numCauses]uint64
	lat            []int64 // batch round trips of the timed phase, ns
	batches        int
	sb             *spanBuf
	err            error
}

func newCallers(w workload, l layer, seed, stream uint64) []*caller {
	cs := make([]*caller, w.callersAt(l))
	for i := range cs {
		cs[i] = &caller{
			idx: i,
			g:   newGen(seed, stream<<8|uint64(i), w.ranks, i),
			b:   make([]bop, w.batch),
			res: make([]bres, w.batch),
		}
	}
	return cs
}

// phase is one stretch of closed-loop traffic.
type phase struct {
	ops      int  // total ops, split evenly over the callers
	balanced bool // half pushes, half pops; otherwise pushes only
	record   bool // keep per-batch round trips
}

// run drives every caller through n ops in batches and returns the
// wall time from the common start to the last reply.
func (c *caller) run(t target, n int, p phase) {
	for done := 0; done < n; {
		k := min(len(c.b), n-done)
		b, res := c.b[:k], c.res[:k]
		pushes := k
		if p.balanced {
			pushes = k / 2
		}
		root, id := c.sb.beginRequest()
		c.g.fill(b, pushes)
		t0 := time.Now()
		err := t.do(c.idx, b, res, c.sb, id)
		if p.record {
			c.lat = append(c.lat, int64(time.Since(t0)))
		}
		c.account(b, res)
		c.batches++
		c.sb.end(root)
		if err != nil {
			c.err = err
			return
		}
		done += k
	}
}

func (c *caller) account(b []bop, res []bres) {
	for i, r := range res {
		switch {
		case r.cause != causeOK:
			c.causes[r.cause]++
		case b[i].push:
			c.pushed.add(b[i].value, b[i].meta)
		default:
			c.popped.add(r.value, r.meta)
		}
	}
}

func runPhase(t target, cs []*caller, p phase) time.Duration {
	per := p.ops / len(cs)
	if p.record {
		for _, c := range cs {
			c.lat = slices.Grow(c.lat[:0], per/len(c.b)+1)
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range cs {
		n := per
		if i == 0 {
			n += p.ops - per*len(cs)
		}
		wg.Add(1)
		go func(c *caller, n int) {
			defer wg.Done()
			<-start
			c.run(t, n, p)
		}(c, n)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

// tally sums the callers' bookkeeping.
type tally struct {
	pushed, popped multiset
	causes         [numCauses]uint64
	err            error
}

func tallyOf(cs []*caller) tally {
	var t tally
	for _, c := range cs {
		t.pushed.merge(c.pushed)
		t.popped.merge(c.popped)
		for i, n := range c.causes {
			t.causes[i] += n
		}
		if c.err != nil && t.err == nil {
			t.err = c.err
		}
	}
	return t
}

func (t tally) failed() uint64 {
	var n uint64
	for i := causeOK + 1; i < numCauses; i++ {
		n += t.causes[i]
	}
	return n
}

// occupancyBand is how far any one queue's occupancy may drift from its
// start over a timed phase, as a share of the start.
const occupancyBand = 0.25

// verify checks the correctness gate: every pushed element was popped
// or drained exactly once (multiset fingerprints), every queue drained
// in non-decreasing rank order, a synchronous follower holds exactly
// the primary's contents, and occupancy stayed in band.
func verify(t tally, d drained, occStart, occEnd []int) []string {
	var bad []string
	if t.err != nil {
		bad = append(bad, fmt.Sprintf("transport error: %v", t.err))
	}
	out := t.popped
	for qi, q := range d.queues {
		for i, el := range q {
			out.add(el.Value, el.Meta)
			if i > 0 && el.Value < q[i-1].Value {
				bad = append(bad, fmt.Sprintf("queue %d drain out of order at %d: %d after %d", qi, i, el.Value, q[i-1].Value))
				break
			}
		}
	}
	if out != t.pushed {
		bad = append(bad, fmt.Sprintf("conservation: pushed %d elements, popped+drained %d, fingerprints differ", t.pushed.n, out.n))
	}
	if d.mirror != nil && !sameContents(d.queues, d.mirror) {
		bad = append(bad, "synchronous follower's contents differ from the primary's")
	}
	for i := range occStart {
		lo := float64(occStart[i]) * (1 - occupancyBand)
		hi := float64(occStart[i]) * (1 + occupancyBand)
		if i >= len(occEnd) || float64(occEnd[i]) < lo || float64(occEnd[i]) > hi {
			bad = append(bad, fmt.Sprintf("occupancy out of band: start %v end %v", occStart, occEnd))
			break
		}
	}
	return bad
}

func sameContents(a, b [][]core.Element) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// settle runs two collections so sync.Pool victims are gone too and the
// live heap reads the same for the same retained state.
func settle() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowsPerRound is the number of timed windows on each fresh stack.
// A window is a fixed op count, about a quarter second on a 2-CPU box;
// every time metric is a median over all windows of a run, which damps
// the second-scale swings a shared host imposes.
const windowsPerRound = 8

// window is one timed stretch of a fixed op count.
type window struct {
	wall     time.Duration
	ops      int
	p50, p90 int64 // batch round trip percentiles, ns
	samples  int   // batch round trips measured
	cpu      time.Duration
	mallocs  uint64
}

// round is one fresh stack: build, prefill, warm up, time
// windowsPerRound windows, tear down, verify.
type round struct {
	setup         time.Duration
	windows       []window
	causes        [numCauses]uint64
	retainedDelta int64 // live heap growth over the timed windows
	heapRetained  int64 // live heap of the whole stack at the end
	occStart      []int
	occEnd        []int
	problems      []string
}

// runRound measures one round of the workload on its top layer.
func runRound(w workload, seed uint64, idx int) (round, error) {
	var r round
	cs := newCallers(w, w.top, seed, uint64(idx))
	base := settle()

	t0 := time.Now()
	t, err := w.build(w.top, probes{})
	if err != nil {
		return r, err
	}
	runPhase(t, cs, phase{ops: w.prefill()})
	r.setup = time.Since(t0)
	pre := tallyOf(cs)
	if n := pre.failed(); n > 0 || pre.err != nil {
		t.stop()
		return r, fmt.Errorf("prefill refused %d ops (%v)", n, pre.err)
	}
	runPhase(t, cs, phase{ops: w.windowOps, balanced: true})
	warm := tallyOf(cs)

	r.occStart = t.occupancy()
	before := settle()
	var ms runtime.MemStats
	for i := 0; i < windowsPerRound; i++ {
		runtime.ReadMemStats(&ms)
		mallocs0, cpu0 := ms.Mallocs, cpuTime()
		wall := runPhase(t, cs, phase{ops: w.windowOps, balanced: true, record: true})
		win := window{wall: wall, ops: w.windowOps, cpu: cpuTime() - cpu0}
		runtime.ReadMemStats(&ms)
		win.mallocs = ms.Mallocs - mallocs0
		var lat []int64
		for _, c := range cs {
			lat = append(lat, c.lat...)
		}
		slices.Sort(lat)
		win.p50, win.p90, win.samples = percentile(lat, 0.50), percentile(lat, 0.90), len(lat)
		r.windows = append(r.windows, win)
	}
	after := settle()
	r.retainedDelta = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	r.heapRetained = int64(after.HeapAlloc) - int64(base.HeapAlloc)
	r.occEnd = t.occupancy()

	d, stopErr := t.stop()
	all := tallyOf(cs)
	for i := range all.causes {
		r.causes[i] = all.causes[i] - warm.causes[i]
	}
	r.problems = verify(all, d, r.occStart, r.occEnd)
	if stopErr != nil {
		r.problems = append(r.problems, fmt.Sprintf("teardown: %v", stopErr))
	}
	return r, nil
}
