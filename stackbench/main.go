// Command stackbench is the repository's layer-waterfall benchmark: four
// seeded closed-loop workloads driven in-process through the serving
// stack (core → engine → wire → replic → cluster), with a correctness
// gate, eight end-to-end metrics per workload, and a separate traced
// run that replays each workload through every layer for per-layer
// metrics. See README.md in this directory.
//
// Run it from the repository root:
//
//	bash stackbench/run.sh --workload engine-deep --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// endToEnd names the end-to-end metrics in the order measure reports
// them.
var endToEnd = []struct{ name, unit string }{
	{"throughput_mops", "Mops"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"cpu_ns_per_op", "ns"},
	{"allocs_per_op", "allocs"},
	{"retained_heap_mb", "MB"},
	{"ok_frac", "ratio"},
	{"setup_s", "s"},
}

// report is the benchmark's result line.
type report struct {
	Correct   bool                       `json:"correct"`
	Attempted uint64                     `json:"attempted"`
	Failed    uint64                     `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

func main() {
	wlName := flag.String("workload", "", "workload: engine-deep, serve-small, repl-sync or cluster-merge")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measurement length: one fresh stack with 8 timed windows per 2 seconds, at least 3")
	trace := flag.Int("trace", 0, "1: the traced per-layer run instead of the end-to-end run")
	repeat := flag.Int("repeat", 1, "end-to-end runs with seeds seed..seed+N-1; prints each metric's median, quartiles and spread")
	flag.Parse()

	w, err := findWorkload(*wlName)
	if err != nil || *seconds < 1 || *trace < 0 || *trace > 1 || *repeat < 1 {
		fmt.Fprintf(os.Stderr, "stackbench: bad arguments (%v)\n", err)
		flag.Usage()
		os.Exit(2)
	}
	var rep report
	var metrics []metric
	if *trace == 1 {
		rep, metrics, err = traced(w, *seed)
	} else {
		rep, metrics, err = runEndToEnd(w, *seed, max(3, *seconds/2), *repeat)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "stackbench: %v\n", err)
		os.Exit(1)
	}
	rep.Metrics = make(map[string]json.RawMessage, len(metrics))
	for _, m := range metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "stackbench: metric %s is not a number\n", m.name)
			os.Exit(1)
		}
		b, _ := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{v, m.unit})
		rep.Metrics[m.name] = b
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stackbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// runEndToEnd measures the workload untraced on its top layer: rounds
// fresh stacks, each timed over the same fixed op count, and reports
// every metric's median over the rounds.
func runEndToEnd(w workload, seed uint64, rounds, repeat int) (report, []metric, error) {
	fmt.Printf("stackbench %s: %s\n", w.name, w.why)
	fmt.Printf("  shape: top=%s trees=%d order=%d levels=%d prefill=%d callers=%d batch=%d follower=%v\n",
		layerNames[w.top], w.queues, w.order, w.levels, w.prefill(), w.callers, w.batch, w.follower)
	fmt.Printf("  closed loop, %d rounds per run, %d windows of %d timed ops per round\n", rounds, windowsPerRound, w.windowOps)
	rep := report{Correct: true}
	var runs [][]metric
	for i := 0; i < repeat; i++ {
		s := seed + uint64(i)
		ms, attempted, failed, ok, err := measure(w, s, rounds)
		if err != nil {
			return rep, nil, err
		}
		rep.Attempted += attempted
		rep.Failed += failed
		rep.Correct = rep.Correct && ok
		runs = append(runs, ms)
	}
	if repeat == 1 {
		return rep, runs[0], nil
	}
	fmt.Printf("  over %d runs (seeds %d..%d):\n", repeat, seed, seed+uint64(repeat)-1)
	fmt.Printf("  %-24s %14s %14s %14s %9s %9s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med")
	meds := make([]metric, len(runs[0]))
	for j, m := range runs[0] {
		vals := make([]float64, len(runs))
		for i := range runs {
			vals[i] = runs[i][j].value
		}
		sp := summarize(vals)
		fmt.Printf("  %-24s %14.6g %14.6g %14.6g %9.4f %9.4f\n", m.name, sp.median, sp.q1, sp.q3, sp.iqrFrac, sp.rangeFrac)
		meds[j] = metric{m.name, m.unit, sp.median}
	}
	return rep, meds, nil
}

// measure runs one end-to-end measurement of rounds rounds. Time
// metrics are medians over every window of every round; set-up and
// retained-heap figures are medians over the rounds.
func measure(w workload, seed uint64, rounds int) (ms []metric, attempted, failed uint64, ok bool, err error) {
	var tput, p50, p90, cpu, allocs []float64
	var setup, heapMB, okFrac, failedFrac, retained []float64
	var causes [numCauses]uint64
	var problems []string
	samples := 0
	for i := 0; i < rounds; i++ {
		r, err := runRound(w, seed, i)
		if err != nil {
			return nil, 0, 0, false, fmt.Errorf("round %d: %w", i, err)
		}
		ops := 0
		for _, win := range r.windows {
			n := float64(win.ops)
			ops += win.ops
			samples += win.samples
			tput = append(tput, n/win.wall.Seconds()/1e6)
			p50 = append(p50, float64(win.p50)/1e3)
			p90 = append(p90, float64(win.p90)/1e3)
			cpu = append(cpu, float64(win.cpu.Nanoseconds())/n)
			allocs = append(allocs, float64(win.mallocs)/n)
		}
		var bad uint64
		for c := causeOK + 1; c < numCauses; c++ {
			bad += r.causes[c]
			causes[c] += r.causes[c]
		}
		attempted += uint64(ops)
		failed += bad
		setup = append(setup, r.setup.Seconds())
		heapMB = append(heapMB, float64(r.heapRetained)/(1<<20))
		okFrac = append(okFrac, float64(uint64(ops)-bad)/float64(ops))
		failedFrac = append(failedFrac, float64(bad)/float64(ops))
		retained = append(retained, float64(r.retainedDelta)/float64(ops))
		for _, p := range r.problems {
			problems = append(problems, fmt.Sprintf("round %d: %s", i, p))
		}
		k := len(tput) - len(r.windows)
		fmt.Printf("  seed %d round %d: %.4f Mops p50 %.1fus p90 %.1fus setup %.4fs occupancy %v -> %v\n",
			seed, i, median(tput[k:]), median(p50[k:]), median(p90[k:]), r.setup.Seconds(), r.occStart, r.occEnd)
	}
	for i, v := range [][]float64{tput, p50, p90, cpu, allocs, heapMB, okFrac, setup} {
		ms = append(ms, metric{endToEnd[i].name, endToEnd[i].unit, median(v)})
	}
	fmt.Printf("  seed %d: medians over %d windows (time metrics) and %d rounds (setup, heap):\n", seed, len(tput), rounds)
	for _, m := range ms {
		fmt.Printf("    %-22s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("    %-22s %14.6g B  (live-heap growth per timed op)\n", "retained_bytes_per_op", median(retained))
	var split []string
	for c := causeOK + 1; c < numCauses; c++ {
		split = append(split, fmt.Sprintf("%s=%d", causeNames[c], causes[c]))
	}
	fmt.Printf("    %-22s %14.6g ratio (%s)\n", "failed_frac", median(failedFrac), strings.Join(split, " "))
	fmt.Printf("    latency samples: %d batch round trips (%d per window)\n", samples, samples/len(tput))
	for _, p := range problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	return ms, attempted, failed, len(problems) == 0, nil
}

// spanDir holds the traced run's span files, relative to the
// repository root the benchmark runs from.
const spanDir = ".bench_build/stackbench"

// traced runs the waterfall: the workload's op stream through every
// layer in turn, with the benchmark's spans and the server's tracer on.
func traced(w workload, seed uint64) (report, []metric, error) {
	fmt.Printf("stackbench %s traced waterfall: %d ops per rung, seed %d\n", w.name, w.ladderOps, seed)
	t0 := time.Now()
	lad, err := runLadder(w, seed)
	if err != nil {
		return report{}, nil, err
	}
	rep := report{Correct: true}
	var rungNames []string
	var spans [][]span
	fmt.Printf("  %-8s %12s %12s %10s\n", "rung", "ns/op", "added ns/op", "Mops")
	for l := layerCore; l < numLayers; l++ {
		r := lad.rungs[l]
		added := r.nsPerOp()
		if l > layerCore {
			added -= lad.rungs[l-1].nsPerOp()
		}
		fmt.Printf("  %-8s %12.1f %12.1f %10.4f\n", layerNames[l], r.nsPerOp(), added, 1e3/r.nsPerOp())
		rep.Attempted += uint64(r.ops)
		rep.Failed += r.failed
		for _, p := range r.problems {
			rep.Correct = false
			fmt.Printf("  CHECK FAILED: %s rung: %s\n", layerNames[l], p)
		}
		rungNames = append(rungNames, layerNames[l])
		spans = append(spans, r.spans)
	}
	for _, u := range lad.untraced {
		rep.Attempted += uint64(u.ops)
		rep.Failed += u.failed
		for _, p := range u.problems {
			rep.Correct = false
			fmt.Printf("  CHECK FAILED: untraced %s rung: %s\n", layerNames[w.top], p)
		}
	}
	fmt.Printf("  untraced %s rung, before and after: %.1f and %.1f ns/op\n",
		layerNames[w.top], lad.untraced[0].nsPerOp(), lad.untraced[1].nsPerOp())
	fmt.Println("  span self time per op (ns):")
	for l := layerCore; l < numLayers; l++ {
		for n, a := range lad.rungs[l].agg {
			if a.n > 0 {
				fmt.Printf("    %-8s %-16s calls %8d  self %10.1f\n", layerNames[l], spanNames[n], a.n, float64(a.self)/float64(lad.rungs[l].ops))
			}
		}
	}
	metrics := lad.metrics()
	for _, m := range metrics {
		fmt.Printf("    %-30s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return rep, nil, err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := writeSpans(path, rungNames, spans); err != nil {
		return rep, nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("  %d spans written to %s; traced run took %.1fs\n", lad.spanCount, path, time.Since(t0).Seconds())
	return rep, metrics, nil
}
