package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// layer is one rung of the stack, bottom to top.
type layer int

const (
	layerCore layer = iota
	layerEngine
	layerWire
	layerReplic
	layerCluster
	numLayers
)

var layerNames = [numLayers]string{"core", "engine", "wire", "replic", "cluster"}

// workload is one closed-loop traffic shape. Every batch holds equal
// pushes and pops, so queue occupancy stays at the prefill level.
type workload struct {
	name string
	why  string
	// top is the layer the end-to-end run drives; the traced run replays
	// the same op stream through every layer of the ladder.
	top    layer
	queues int // trees in total: shards, or nodes × shards in a cluster
	order  int
	levels int
	// callers are closed-loop goroutines; conns are the wire.Client
	// connections they share.
	callers, conns int
	batch          int
	follower       bool // a synchronous in-process follower per node
	ranks          rankKind
	// windowOps is the op count of one timed window: runs stop on a
	// count, never on a clock, so every retained-state figure is
	// reproducible.
	windowOps int
	// ladderOps is the timed op count of each rung of the traced run.
	ladderOps int
}

var workloads = []workload{
	{
		name:      "engine-deep",
		why:       "deep hash-sharded trees under one 64-op submitter: core and engine do all the work",
		top:       layerEngine,
		queues:    2,
		order:     2,
		levels:    16,
		callers:   1,
		batch:     64,
		ranks:     ranksUniform16,
		windowOps: 400_000,
		ladderOps: 1 << 18,
	},
	{
		name:      "serve-small",
		why:       "bmwd-shaped node on loopback, two callers pipelining 16-op batches: frames and syscalls dominate",
		top:       layerReplic,
		queues:    1,
		order:     3,
		levels:    10,
		callers:   2,
		conns:     1,
		batch:     16,
		ranks:     ranksMonotone,
		windowOps: 1 << 17,
		ladderOps: 1 << 17,
	},
	{
		name:      "repl-sync",
		why:       "the serve-small node plus a synchronous follower: log append, shipping and ack wait dominate",
		top:       layerReplic,
		queues:    1,
		order:     3,
		levels:    10,
		callers:   2,
		conns:     1,
		batch:     64,
		follower:  true,
		ranks:     ranksMonotone,
		windowOps: 1 << 16,
		ladderOps: 1 << 17,
	},
	{
		name:      "cluster-merge",
		why:       "two nodes under a hash-slot map via cluster.Client: routing and strict-merge PopMin dominate",
		top:       layerCluster,
		queues:    2,
		order:     3,
		levels:    10,
		callers:   1,
		conns:     1,
		batch:     64,
		ranks:     ranksUniform16,
		windowOps: 1 << 14,
		ladderOps: 1 << 15,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// prefill is the working occupancy: every tree held half full.
func (w workload) prefill() int {
	return w.queues * core.Capacity(w.order, w.levels) / 2
}

// callersAt is the caller count a layer is driven with: a bare tree is
// single-goroutine by contract, every other layer gets the workload's.
func (w workload) callersAt(l layer) int {
	if l == layerCore {
		return 1
	}
	return w.callers
}

func (w workload) engineConfig(shards int) engine.Config {
	return engine.Config{
		Shards:  shards,
		Kind:    engine.KindCore,
		Order:   w.order,
		Levels:  w.levels,
		Routing: engine.RouteHash,
	}
}

// probes are the optional instruments a traced rung attaches.
type probes struct {
	tracer *obs.Tracer
	writes *atomic.Int64
	reg    *obs.Registry
}

// build assembles the stack of layer l in the workload's shape. The
// cluster spreads the workload's trees over clusterNodes nodes.
func (w workload) build(l layer, p probes) (target, error) {
	callers := w.callersAt(l)
	switch l {
	case layerCore:
		return newCoreTarget(w.queues, w.order, w.levels), nil
	case layerEngine:
		return newEngineTarget(w.engineConfig(w.queues), callers, w.batch, p.reg)
	case layerWire, layerReplic:
		return newWireTarget(nodeConfig{
			engine:   w.engineConfig(w.queues),
			replic:   l == layerReplic,
			follower: l == layerReplic && w.follower,
			tracer:   p.tracer,
			writes:   p.writes,
		}, callers, max(1, w.conns), w.batch)
	case layerCluster:
		return newClusterTarget(nodeConfig{
			engine:   w.engineConfig(max(1, w.queues/clusterNodes)),
			replic:   true,
			follower: w.follower,
			tracer:   p.tracer,
		}, callers, w.batch)
	}
	return nil, fmt.Errorf("unknown layer %d", l)
}
