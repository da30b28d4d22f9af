package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// rung is one layer of the traced waterfall, driven with the workload's
// op stream.
type rung struct {
	layer    layer
	wall     time.Duration
	ops      int
	batches  int
	spans    []span
	agg      [numSpanNames]spanStats
	mallocs  uint64
	stageNs  [obs.NumStages]float64 // server stage segments, mean ns
	drainOps float64
	writes   int64
	logRecs  uint64
	wireOps  uint64
	redirect uint64
	failed   uint64
	problems []string
}

func (r rung) nsPerOp() float64 { return float64(r.wall.Nanoseconds()) / float64(r.ops) }

// ladderStream is the generator stream every rung replays, so each layer
// sees the same ops.
const ladderStream = 1 << 20

// runRung builds layer l in the workload's shape, prefills and warms it
// untraced, then times ladderOps ops. Traced, it records the
// benchmark's spans around every public call, sets the server's Tracer
// on the wire and replic rungs, and instruments the engine.
func runRung(w workload, l layer, seed uint64, traced bool) (rung, error) {
	r := rung{layer: l, ops: w.ladderOps}
	var p probes
	if traced {
		p.reg = obs.NewRegistry()
		if l == layerWire || l == layerReplic {
			p.tracer = obs.NewTracer(obs.TracerOptions{Registry: p.reg, Prefix: "sb_trace"})
		}
		if l == layerWire {
			p.writes = new(atomic.Int64)
		}
	}
	cs := newCallers(w, l, seed, ladderStream)
	t, err := w.build(l, p)
	if err != nil {
		return r, err
	}
	runPhase(t, cs, phase{ops: w.prefill()})
	runPhase(t, cs, phase{ops: w.ladderOps / 8, balanced: true})
	warm := tallyOf(cs)
	occStart := t.occupancy()

	per := w.ladderOps/len(cs) + w.batch
	if traced {
		for _, c := range cs {
			c.sb = newSpanBuf(c.idx, (per/w.batch+1)*(3+w.batch/2))
		}
	}
	var snap0 obs.Snapshot
	if p.reg != nil {
		snap0 = p.reg.Snapshot()
	}
	logs0, wire0, redir0 := counters(t)
	writes := func() int64 {
		if p.writes == nil {
			return 0
		}
		return p.writes.Load()
	}
	writes0 := writes()
	ms0 := settle()
	batches0 := cs[0].batches
	for _, c := range cs[1:] {
		batches0 += c.batches
	}
	r.wall = runPhase(t, cs, phase{ops: w.ladderOps, balanced: true})
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	logs1, wire1, redir1 := counters(t)
	r.logRecs, r.wireOps, r.redirect = logs1-logs0, wire1-wire0, redir1-redir0
	r.writes = writes() - writes0
	if p.reg != nil {
		snap1 := p.reg.Snapshot()
		for st := obs.StageDecode; st < obs.NumStages; st++ {
			name := "sb_trace_stage_" + st.String() + "_ns"
			r.stageNs[st] = snap1.Quantile(name).Sub(snap0.Quantile(name)).Mean()
		}
		r.drainOps = drainMean(snap0, snap1)
	}
	occEnd := t.occupancy()
	d, stopErr := t.stop()

	all := tallyOf(cs)
	r.failed = all.failed() - warm.failed()
	r.problems = verify(all, d, occStart, occEnd)
	if stopErr != nil {
		r.problems = append(r.problems, fmt.Sprintf("teardown: %v", stopErr))
	}
	r.batches = -batches0
	for _, c := range cs {
		r.batches += c.batches
		if c.sb != nil {
			r.spans = append(r.spans, c.sb.spans...)
		}
	}
	r.agg = aggregate(r.spans)
	return r, nil
}

// counters reads a target's layer counters: replication log records,
// cluster wire ops and cluster redirects.
func counters(t target) (logRecs, wireOps, redirects uint64) {
	switch t := t.(type) {
	case *wireTarget:
		return t.n.logSeq(), 0, 0
	case *clusterTarget:
		for _, n := range t.nodes {
			logRecs += n.logSeq()
		}
		return logRecs, t.wireOps(), t.cl.Stats().Redirects
	}
	return 0, 0, 0
}

// drainMean is the mean ops per shard drain between two snapshots of an
// instrumented engine, over all shards.
func drainMean(s0, s1 obs.Snapshot) float64 {
	var sum, n uint64
	for name, h := range s1.Histograms {
		if !strings.HasSuffix(name, "_drain_batch") {
			continue
		}
		h0 := s0.Histograms[name]
		sum += h.Sum - h0.Sum
		n += h.Count - h0.Count
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// codecNsPerOp times the wire codec on the workload's batch shape: one
// AppendOps, ParseOps, AppendResults and ParseResults per batch, per op.
func codecNsPerOp(w workload, seed uint64) (float64, error) {
	const nb = 256
	g := newGen(seed, ladderStream+1, w.ranks, 0)
	b := make([]bop, w.batch)
	ops := make([][]wire.Op, nb)
	res := make([][]wire.Result, nb)
	for i := range ops {
		g.fill(b, w.batch/2)
		ops[i] = toWire(make([]wire.Op, w.batch), b)
		res[i] = make([]wire.Result, w.batch)
		for j := range res[i] {
			v, m := g.element()
			res[i][j] = wire.Result{Status: wire.StatusOK, Value: v, Meta: m}
		}
	}
	iters := max(1, (1<<21)/(nb*w.batch))
	var obuf, rbuf []byte
	t0 := time.Now()
	for it := 0; it < iters; it++ {
		for i := range ops {
			obuf = wire.AppendOps(obuf[:0], ops[i])
			if _, err := wire.ParseOps(obuf); err != nil {
				return 0, err
			}
			rbuf = wire.AppendResults(rbuf[:0], res[i])
			if _, err := wire.ParseResults(rbuf); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters*nb*w.batch), nil
}

// ladder is a traced run's outcome.
type ladder struct {
	rungs [numLayers]rung
	// untraced are the workload's top rung run without spans or server
	// tracer, once before the traced rungs and once after, so a drift
	// of the host over the run does not land on the overhead figure.
	untraced  [2]rung
	codecNs   float64
	spanCount int
}

func runLadder(w workload, seed uint64) (ladder, error) {
	var lad ladder
	var err error
	if lad.untraced[0], err = runRung(w, w.top, seed, false); err != nil {
		return lad, fmt.Errorf("untraced %s rung: %w", layerNames[w.top], err)
	}
	for l := layerCore; l < numLayers; l++ {
		r, err := runRung(w, l, seed, true)
		if err != nil {
			return lad, fmt.Errorf("%s rung: %w", layerNames[l], err)
		}
		lad.rungs[l] = r
		lad.spanCount += len(r.spans)
	}
	if lad.untraced[1], err = runRung(w, w.top, seed, false); err != nil {
		return lad, fmt.Errorf("untraced %s rung: %w", layerNames[w.top], err)
	}
	lad.codecNs, err = codecNsPerOp(w, seed)
	return lad, err
}

// untracedNsPerOp is the mean of the two untraced runs of the top rung.
func (lad ladder) untracedNsPerOp() float64 {
	return (lad.untraced[0].nsPerOp() + lad.untraced[1].nsPerOp()) / 2
}

// metrics derives the per-layer metrics from the ladder.
func (lad ladder) metrics() []metric {
	rg := lad.rungs
	pushes := float64(rg[layerCore].ops / 2)
	us := func(ns float64) float64 { return ns / 1e3 }
	mean := func(l layer, s spanName) float64 { return rg[l].agg[s].meanNs() }
	per := func(l layer, x float64) float64 { return x / float64(rg[l].ops) }
	var harnessNs float64
	var harnessOps int
	for _, r := range rg {
		harnessNs += float64(r.agg[spanBatch].self)
		harnessOps += r.ops
	}
	top := rg[lad.untraced[0].layer]
	return []metric{
		{"core.push_ns", "ns", float64(rg[layerCore].agg[spanCorePush].total) / pushes},
		{"core.pop_ns", "ns", float64(rg[layerCore].agg[spanCorePop].total) / pushes},
		{"core.ns_per_op", "ns", rg[layerCore].nsPerOp()},
		{"engine.submit_ns_per_op", "ns", rg[layerEngine].nsPerOp()},
		{"engine.added_ns_per_op", "ns", rg[layerEngine].nsPerOp() - rg[layerCore].nsPerOp()},
		{"engine.allocs_per_submit", "allocs", float64(rg[layerEngine].mallocs) / float64(rg[layerEngine].batches)},
		{"engine.drain_ops", "ops", rg[layerEngine].drainOps},
		{"engine.ring_wait_us", "us", us(rg[layerWire].stageNs[obs.StageDequeue])},
		{"wire.codec_ns_per_op", "ns", lad.codecNs},
		{"wire.decode_us", "us", us(rg[layerWire].stageNs[obs.StageDecode])},
		{"wire.write_us", "us", us(rg[layerWire].stageNs[obs.StageWrite])},
		{"wire.server_writes_per_batch", "count", float64(rg[layerWire].writes) / float64(rg[layerWire].batches)},
		{"wire.rtt_us", "us", us(mean(layerWire, spanWireDo))},
		{"wire.ns_per_op", "ns", rg[layerWire].nsPerOp()},
		{"wire.added_ns_per_op", "ns", rg[layerWire].nsPerOp() - rg[layerEngine].nsPerOp()},
		{"replic.commit_us", "us", us(rg[layerReplic].stageNs[obs.StageCommit])},
		{"replic.ack_us", "us", us(rg[layerReplic].stageNs[obs.StageAck])},
		{"replic.log_records_per_op", "count", per(layerReplic, float64(rg[layerReplic].logRecs))},
		{"replic.ns_per_op", "ns", rg[layerReplic].nsPerOp()},
		{"replic.added_ns_per_op", "ns", rg[layerReplic].nsPerOp() - rg[layerWire].nsPerOp()},
		{"cluster.push_us", "us", us(mean(layerCluster, spanClusterPush))},
		{"cluster.popmin_us", "us", us(mean(layerCluster, spanClusterPopMin))},
		{"cluster.wire_ops_per_op", "count", per(layerCluster, float64(rg[layerCluster].wireOps))},
		{"cluster.redirects", "count", float64(rg[layerCluster].redirect)},
		{"cluster.ns_per_op", "ns", rg[layerCluster].nsPerOp()},
		{"cluster.added_ns_per_op", "ns", rg[layerCluster].nsPerOp() - rg[layerReplic].nsPerOp()},
		{"trace.overhead_frac", "ratio", 1 - lad.untracedNsPerOp()/top.nsPerOp()},
		{"trace.harness_ns_per_op", "ns", harnessNs / float64(harnessOps)},
	}
}
