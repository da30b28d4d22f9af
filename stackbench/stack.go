package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/replic"
	"repro/internal/wire"
)

// target is one layer's public API under test. It executes batches for
// numbered callers, reports per-queue occupancy (per shard, or per node
// in a cluster), and on stop tears the stack down and returns every
// queue's final drain in pop order.
type target interface {
	do(c int, b []bop, res []bres, sb *spanBuf, parent uint64) error
	occupancy() []int
	stop() (drained, error)
}

// drained holds a torn-down stack's final contents: one slice per
// queue, in pop order. mirror is the synchronous follower's copy, nil
// when the stack has none.
type drained struct {
	queues [][]core.Element
	mirror [][]core.Element
}

// coreTarget replays ops on bare trees: pushes route by a hash of the
// metadata, pops take the smallest head, as the engine's strict merge
// does. Single caller only — a Tree is single-goroutine by contract.
type coreTarget struct {
	trees []*core.Tree
}

func newCoreTarget(queues, order, levels int) *coreTarget {
	t := &coreTarget{}
	for i := 0; i < queues; i++ {
		t.trees = append(t.trees, core.New(order, levels))
	}
	return t
}

func (t *coreTarget) do(_ int, b []bop, res []bres, sb *spanBuf, parent uint64) error {
	// A batch is pushes first, then pops (see gen.fill); each half is
	// one span so push and pop cost separate without a clock read per op.
	split := 0
	for split < len(b) && b[split].push {
		split++
	}
	sp := sb.begin(spanCorePush, parent)
	for i := 0; i < split; i++ {
		tr := t.trees[mix64(b[i].meta)%uint64(len(t.trees))]
		res[i] = bres{cause: coreCause(tr.Push(core.Element{Value: b[i].value, Meta: b[i].meta}))}
	}
	sb.end(sp)
	sp = sb.begin(spanCorePop, parent)
	for i := split; i < len(b); i++ {
		var best *core.Tree
		var bestV uint64
		for _, tr := range t.trees {
			if h, err := tr.Peek(); err == nil && (best == nil || h.Value < bestV) {
				best, bestV = tr, h.Value
			}
		}
		if best == nil {
			res[i] = bres{cause: causeEmpty}
			continue
		}
		el, err := best.Pop()
		res[i] = bres{cause: coreCause(err), value: el.Value, meta: el.Meta}
	}
	sb.end(sp)
	return nil
}

func (t *coreTarget) occupancy() []int {
	occ := make([]int, len(t.trees))
	for i, tr := range t.trees {
		occ[i] = tr.Len()
	}
	return occ
}

func (t *coreTarget) stop() (drained, error) {
	var d drained
	for _, tr := range t.trees {
		var q []core.Element
		for tr.Len() > 0 {
			el, err := tr.Pop()
			if err != nil {
				return d, fmt.Errorf("core drain: %w", err)
			}
			q = append(q, el)
		}
		d.queues = append(d.queues, q)
	}
	return d, nil
}

func coreCause(err error) cause {
	switch {
	case err == nil:
		return causeOK
	case errors.Is(err, core.ErrFull):
		return causeFull
	case errors.Is(err, core.ErrEmpty):
		return causeEmpty
	case errors.Is(err, engine.ErrBackpressure):
		return causeBackpressure
	case errors.Is(err, engine.ErrOverloaded):
		return causeOverloaded
	}
	return causeTransport
}

// engineTarget drives engine.SubmitInto with per-caller buffers, so the
// benchmark itself allocates nothing per batch.
type engineTarget struct {
	eng *engine.Engine
	ops [][]engine.Op
	out [][]engine.Result
}

func newEngineTarget(cfg engine.Config, callers, batch int, reg *obs.Registry) (*engineTarget, error) {
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if reg != nil {
		eng.Instrument(reg, "sb_engine")
	}
	t := &engineTarget{eng: eng}
	for c := 0; c < callers; c++ {
		t.ops = append(t.ops, make([]engine.Op, batch))
		t.out = append(t.out, make([]engine.Result, batch))
	}
	return t, nil
}

func (t *engineTarget) do(c int, b []bop, res []bres, sb *spanBuf, parent uint64) error {
	ops, out := t.ops[c][:len(b)], t.out[c][:len(b)]
	for i, o := range b {
		if o.push {
			ops[i] = engine.PushOp(core.Element{Value: o.value, Meta: o.meta})
		} else {
			ops[i] = engine.PopOp()
		}
	}
	sp := sb.begin(spanEngineSubmit, parent)
	t.eng.SubmitInto(ops, out)
	sb.end(sp)
	for i, r := range out {
		res[i] = bres{cause: coreCause(r.Err), value: r.Elem.Value, meta: r.Elem.Meta}
	}
	return nil
}

func (t *engineTarget) occupancy() []int { return shardLens(t.eng) }

func (t *engineTarget) stop() (drained, error) {
	t.eng.Close()
	q, err := drainEngine(t.eng)
	return drained{queues: q}, err
}

func shardLens(e *engine.Engine) []int {
	occ := make([]int, e.Shards())
	for i := range occ {
		occ[i] = e.ShardLen(i)
	}
	return occ
}

// drainEngine empties every shard of a closed engine in pop order.
func drainEngine(e *engine.Engine) ([][]core.Element, error) {
	var q [][]core.Element
	for i := 0; i < e.Shards(); i++ {
		els, err := e.ShardDrain(i)
		if err != nil {
			return nil, fmt.Errorf("drain shard %d: %w", i, err)
		}
		q = append(q, els)
	}
	return q, nil
}

// nodeConfig shapes one bmwd-like node: an engine behind a wire.Server
// on loopback TCP, optionally with a replication primary attached and
// an in-process synchronous follower.
type nodeConfig struct {
	engine   engine.Config
	replic   bool
	follower bool
	tracer   *obs.Tracer
	writes   *atomic.Int64 // non-nil: count the server's conn writes
	state    *cluster.State
}

type node struct {
	eng    *engine.Engine
	srv    *wire.Server
	rn     *replic.Node
	feng   *engine.Engine
	frn    *replic.Node
	addr   string
	served chan error
}

// startNode serves cfg on ln. With a follower it returns only once the
// follower has attached, so a synchronous primary gates every batch.
func startNode(cfg nodeConfig, ln net.Listener) (*node, error) {
	eng, err := engine.New(cfg.engine)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("engine: %w", err)
	}
	n := &node{eng: eng, addr: ln.Addr().String(), served: make(chan error, 1)}
	n.srv = wire.NewServerConfig(eng, wire.ServerConfig{Tracer: cfg.tracer})
	if st := cfg.state; st != nil {
		n.srv.SetOwnerGate(func(op wire.Op) (bool, uint64) { return st.Owns(op.Value, op.Meta) })
		n.srv.SetClusterHandlers(st.EncodedIfNewer, st.OfferEncoded)
	}
	if cfg.replic {
		n.rn = replic.Attach(eng, n.srv, replic.Config{
			Engine:      cfg.engine,
			Sync:        cfg.follower,
			SyncTimeout: 10 * time.Second,
		})
	}
	if cfg.writes != nil {
		ln = countingListener{Listener: ln, writes: cfg.writes}
	}
	go func() { n.served <- n.srv.Serve(ln) }()
	if cfg.follower {
		if err := n.startFollower(cfg.engine); err != nil {
			n.stop()
			return nil, err
		}
	}
	return n, nil
}

func (n *node) startFollower(cfg engine.Config) error {
	feng, err := engine.New(cfg)
	if err != nil {
		return fmt.Errorf("follower engine: %w", err)
	}
	n.feng = feng
	n.frn = replic.Attach(feng, wire.NewServer(feng), replic.Config{
		Engine:      cfg,
		PrimaryAddr: n.addr,
		DialRetry:   time.Millisecond,
	})
	return waitFor(10*time.Second, "follower attach", func() bool {
		return n.frn.Ready() && n.rn.Status().Followers > 0
	})
}

// stop waits for the follower to acknowledge the whole log, shuts the
// server and replication down, and drains both engines.
func (n *node) stop() (drained, error) {
	var d drained
	var firstErr error
	if n.frn != nil {
		firstErr = waitFor(10*time.Second, "follower catch-up", func() bool {
			return n.rn.AckSeq() == n.rn.LogSeq()
		})
		// The follower's stream is a live connection too: close it
		// first so Shutdown does not wait out its deadline on it.
		n.frn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("server shutdown: %w", err)
	}
	<-n.served
	if n.rn != nil {
		n.rn.Close()
	}
	n.eng.Close()
	q, err := drainEngine(n.eng)
	if err != nil && firstErr == nil {
		firstErr = err
	}
	d.queues = q
	if n.feng != nil {
		n.feng.Close()
		m, err := drainEngine(n.feng)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		d.mirror = m
	}
	return d, firstErr
}

// logSeq is the node's replication log tip (0 without replication).
func (n *node) logSeq() uint64 {
	if n.rn == nil {
		return 0
	}
	return n.rn.LogSeq()
}

func waitFor(limit time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: timed out after %v", what, limit)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// countingListener counts Write calls on every accepted connection —
// the server's socket writes, which its coalescing writer batches.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// wireTarget drives one node through wire.Client connections shared
// round-robin by the callers.
type wireTarget struct {
	n       *node
	clients []*wire.Client
	ops     [][]wire.Op
}

func newWireTarget(cfg nodeConfig, callers, conns, batch int) (*wireTarget, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n, err := startNode(cfg, ln)
	if err != nil {
		return nil, err
	}
	t := &wireTarget{n: n, ops: wireBuffers(callers, batch)}
	for i := 0; i < conns; i++ {
		// A session enrolls the connection in the server's dedup cache,
		// which is what a synchronous primary gates responses on.
		cl, err := wire.DialOptions(n.addr, wire.ClientOptions{Session: uint64(i) + 1})
		if err != nil {
			t.stop()
			return nil, fmt.Errorf("dial: %w", err)
		}
		t.clients = append(t.clients, cl)
	}
	return t, nil
}

func wireBuffers(callers, batch int) [][]wire.Op {
	var b [][]wire.Op
	for c := 0; c < callers; c++ {
		b = append(b, make([]wire.Op, batch))
	}
	return b
}

func toWire(dst []wire.Op, b []bop) []wire.Op {
	dst = dst[:len(b)]
	for i, o := range b {
		if o.push {
			dst[i] = wire.Op{Kind: wire.OpPush, Value: o.value, Meta: o.meta}
		} else {
			dst[i] = wire.Op{Kind: wire.OpPop}
		}
	}
	return dst
}

func (t *wireTarget) do(c int, b []bop, res []bres, sb *spanBuf, parent uint64) error {
	ops := toWire(t.ops[c], b)
	sp := sb.begin(spanWireDo, parent)
	out, err := t.clients[c%len(t.clients)].Do(ops)
	sb.end(sp)
	return fillWire(res, out, err)
}

func fillWire(res []bres, out []wire.Result, err error) error {
	if err != nil {
		for i := range res {
			res[i] = bres{cause: causeTransport}
		}
		return err
	}
	for i, r := range out {
		res[i] = bres{cause: wireCause(r.Status), value: r.Value, meta: r.Meta}
	}
	return nil
}

func wireCause(s wire.Status) cause {
	switch s {
	case wire.StatusOK:
		return causeOK
	case wire.StatusFull:
		return causeFull
	case wire.StatusEmpty:
		return causeEmpty
	case wire.StatusBackpressure:
		return causeBackpressure
	case wire.StatusOverloaded:
		return causeOverloaded
	case wire.StatusNotOwner:
		return causeNotOwner
	}
	return causeTransport
}

func (t *wireTarget) occupancy() []int { return shardLens(t.n.eng) }

func (t *wireTarget) stop() (drained, error) {
	for _, cl := range t.clients {
		cl.Close()
	}
	return t.n.stop()
}

// clusterNodes is the node count of every cluster stack.
const clusterNodes = 2

// clusterTarget is clusterNodes bmwd-like nodes under a hash-slot map,
// driven through one routing cluster.Client. Traced, a batch is split
// into its public halves — Do on the pushes, then PopMin per pop, which
// is exactly what Do runs — so each half gets its own span.
type clusterTarget struct {
	nodes []*node
	cl    *cluster.Client
	ops   [][]wire.Op
	res   [][]wire.Result
}

func newClusterTarget(cfg nodeConfig, callers, batch int) (*clusterTarget, error) {
	var lns []net.Listener
	m := &cluster.Map{Version: 1, Mode: cluster.ModeHash}
	width := ^uint64(0) / clusterNodes
	for i := 0; i < clusterNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		m.Nodes = append(m.Nodes, cluster.Node{
			ID: uint32(i + 1), Epoch: 1, Start: uint64(i) * width,
			Addrs: []string{ln.Addr().String()},
		})
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("cluster map: %w", err)
	}
	t := &clusterTarget{ops: wireBuffers(callers, batch)}
	for c := 0; c < callers; c++ {
		t.res = append(t.res, make([]wire.Result, batch))
	}
	var startErr error
	for i, ln := range lns {
		if startErr != nil {
			ln.Close()
			continue
		}
		st, err := cluster.NewState(m, uint32(i+1))
		if err != nil {
			startErr = err
			ln.Close()
			continue
		}
		nc := cfg
		nc.state = st
		n, err := startNode(nc, ln)
		if err != nil {
			startErr = err
			continue
		}
		t.nodes = append(t.nodes, n)
	}
	if startErr == nil {
		t.cl, startErr = cluster.NewClient(cluster.Options{Map: m, RequestTimeout: 10 * time.Second})
	}
	if startErr != nil {
		t.stop()
		return nil, fmt.Errorf("cluster: %w", startErr)
	}
	return t, nil
}

func (t *clusterTarget) do(c int, b []bop, res []bres, sb *spanBuf, parent uint64) error {
	ops := toWire(t.ops[c], b)
	if sb == nil {
		out, err := t.cl.Do(ops)
		return fillWire(res, out, err)
	}
	split := 0
	for split < len(ops) && ops[split].Kind == wire.OpPush {
		split++
	}
	out := t.res[c][:len(ops)]
	sp := sb.begin(spanClusterPush, parent)
	pushed, err := t.cl.Do(ops[:split])
	sb.end(sp)
	if err != nil {
		return fillWire(res, nil, err)
	}
	copy(out, pushed)
	for i := split; i < len(ops); i++ {
		sp := sb.begin(spanClusterPopMin, parent)
		r, err := t.cl.PopMin()
		sb.end(sp)
		if err != nil {
			return fillWire(res, nil, err)
		}
		out[i] = r
	}
	return fillWire(res, out, nil)
}

func (t *clusterTarget) occupancy() []int {
	occ := make([]int, len(t.nodes))
	for i, n := range t.nodes {
		occ[i] = n.eng.Len()
	}
	return occ
}

// wireOps totals the wire operations the client sent to every node:
// user ops plus the merge's head probes.
func (t *clusterTarget) wireOps() uint64 {
	var ops uint64
	for _, ns := range t.cl.Stats().PerNode {
		ops += ns.Ops
	}
	return ops
}

func (t *clusterTarget) stop() (drained, error) {
	if t.cl != nil {
		t.cl.Close()
	}
	var d drained
	var firstErr error
	for _, n := range t.nodes {
		nd, err := n.stop()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		d.queues = append(d.queues, nd.queues...)
		d.mirror = append(d.mirror, nd.mirror...)
	}
	return d, firstErr
}
