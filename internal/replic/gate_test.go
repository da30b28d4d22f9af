package replic

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// ackHoldProxy sits between a follower and its primary. Records flow
// primary → follower untouched; the follower → primary direction (the
// hello, then only TReplAck frames) can be held, so a test can freeze
// the primary's view of follower acks while the follower keeps
// applying.
type ackHoldProxy struct {
	addr string
	gate sync.Mutex // held while acks are held
}

func startAckHoldProxy(t *testing.T, upstream string) *ackHoldProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &ackHoldProxy{addr: ln.Addr().String()}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	track := func(c net.Conn) {
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
	}
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	})
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				down.Close()
				continue
			}
			track(down)
			track(up)
			go func() {
				io.Copy(down, up)
				down.Close()
			}()
			go func() {
				io.Copy(heldWriter{p, up}, down)
				up.Close()
			}()
		}
	}()
	return p
}

// heldWriter forwards writes once the proxy's gate is free.
type heldWriter struct {
	p *ackHoldProxy
	w io.Writer
}

func (h heldWriter) Write(b []byte) (int, error) {
	h.p.gate.Lock()
	h.p.gate.Unlock()
	return h.w.Write(b)
}

// hold holds follower acks until the returned release is called; the
// test's cleanup releases them too, so a failing test cannot wedge the
// node shutdown.
func (p *ackHoldProxy) hold(t *testing.T) (release func()) {
	p.gate.Lock()
	var once sync.Once
	release = func() { once.Do(p.gate.Unlock) }
	t.Cleanup(release)
	return release
}

// startSyncPair starts a synchronous primary and a follower streaming
// from it through an ack-hold proxy, and waits until the primary gates
// on the follower.
func startSyncPair(t *testing.T) (prim, fol *tnode, proxy *ackHoldProxy) {
	t.Helper()
	prim = startNode(t, testGeom, Config{Sync: true, SyncTimeout: 10 * time.Second})
	proxy = startAckHoldProxy(t, prim.addr)
	fol = startNode(t, testGeom, Config{PrimaryAddr: proxy.addr})
	t.Cleanup(func() {
		fol.stop(2 * time.Second)
		prim.stop(2 * time.Second)
	})
	waitUntil(t, "follower attach", func() bool {
		return fol.node.Ready() && prim.node.Status().Followers == 1
	})
	return prim, fol, proxy
}

// rawSession opens a wire connection enrolled in session and completes
// the handshake, for tests that need to see frames exactly as sent.
func rawSession(t *testing.T, addr string, session uint64) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := wire.WriteFrame(conn, wire.THello, 0, wire.AppendHello(nil, session)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f, err := wire.ReadFrame(conn); err != nil || f.Type != wire.THelloOK {
		t.Fatalf("handshake: frame %+v, err %v", f, err)
	}
	return conn
}

// lsnSum is the engine's total applied-mutation count.
func lsnSum(n *tnode) uint64 {
	var s uint64
	for i := 0; i < n.eng.Shards(); i++ {
		s += n.eng.ShardLSN(i)
	}
	return s
}

// TestPipelinedBatchesGatedInOrder holds the follower's acks and sends
// two pipelined batches on one connection. The second batch must
// execute while the first awaits its ack, no response may leave before
// an ack covers its group, and the responses must arrive in order.
func TestPipelinedBatchesGatedInOrder(t *testing.T) {
	prim, fol, proxy := startSyncPair(t)
	conn := rawSession(t, prim.addr, 0xA11)

	base, baseAck := prim.node.LogSeq(), prim.node.AckSeq()
	batches := [][]wire.Op{
		{{Kind: wire.OpPush, Value: 10, Meta: 1}, {Kind: wire.OpPush, Value: 20, Meta: 2}},
		{{Kind: wire.OpPush, Value: 30, Meta: 3}, {Kind: wire.OpPush, Value: 40, Meta: 4}, {Kind: wire.OpPush, Value: 50, Meta: 5}},
	}
	// Each group is its op records plus the session's dedup record.
	groupEnd := []uint64{base + 3, base + 3 + 4}

	release := proxy.hold(t)
	for i, ops := range batches {
		if err := wire.WriteFrame(conn, wire.TBatch, uint64(i+1), wire.AppendOps(nil, ops)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "both batches executed", func() bool { return lsnSum(prim) == 5 })
	if got := prim.node.LogSeq(); got != groupEnd[1] {
		t.Fatalf("log seq %d after two batches, want %d", got, groupEnd[1])
	}
	if got := prim.node.AckSeq(); got != baseAck {
		t.Fatalf("ack seq moved to %d while acks were held", got)
	}
	// The follower applied both groups; only its ack is held.
	waitUntil(t, "follower applied both", func() bool { return lsnSum(fol) == 5 })

	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if f, err := wire.ReadFrame(conn); err == nil {
		t.Fatalf("response id %d released with acks held", f.ID)
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read while held: %v", err)
	}

	release()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := range batches {
		f, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.TBatchOK || f.ID != uint64(i+1) {
			t.Fatalf("response %d: type %d id %d, want TBatchOK id %d", i, f.Type, f.ID, i+1)
		}
		if ack := prim.node.AckSeq(); ack < groupEnd[i] {
			t.Fatalf("response %d released at ack seq %d, before its group end %d", f.ID, ack, groupEnd[i])
		}
		res, err := wire.ParseResults(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range res {
			if r.Status != wire.StatusOK {
				t.Fatalf("response %d op %d: %v", f.ID, j, r.Status)
			}
		}
	}
	if prim.node.Status().Degraded {
		t.Fatal("primary degraded with a live follower")
	}
}

// TestDedupHitWaitsForAck is the retry path of synchronous gating: a
// client whose connection drops while its response awaits the follower
// ack retries the same id on a fresh connection. The dedup cache holds
// the original's response, but it must not leave until the follower
// ack covers the original group — else a primary kill right after
// loses an acked op.
func TestDedupHitWaitsForAck(t *testing.T) {
	prim, _, proxy := startSyncPair(t)
	const session, id = 0xD0D0, 7
	ops := []wire.Op{{Kind: wire.OpPush, Value: 77, Meta: 7}}

	release := proxy.hold(t)
	base := prim.node.LogSeq()
	c1, err := wire.DialOptions(prim.addr, wire.ClientOptions{Session: session})
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() {
		_, err := c1.DoID(id, ops, 0)
		first <- err
	}()
	waitUntil(t, "original executed", func() bool { return prim.node.LogSeq() == base+2 })
	select {
	case err := <-first:
		t.Fatalf("original released with acks held (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	// The connection drops mid-wait; the client retries elsewhere.
	c1.Close()
	<-first

	c2, err := wire.DialOptions(prim.addr, wire.ClientOptions{Session: session})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	type outcome struct {
		res []wire.Result
		err error
	}
	retry := make(chan outcome, 1)
	go func() {
		res, err := c2.DoID(id, ops, 0)
		retry <- outcome{res, err}
	}()
	select {
	case o := <-retry:
		t.Fatalf("dedup hit released before the follower ack: %+v, err %v", o.res, o.err)
	case <-time.After(300 * time.Millisecond):
	}

	release()
	var o outcome
	select {
	case o = <-retry:
	case <-time.After(5 * time.Second):
		t.Fatal("dedup hit never released after the ack")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	if len(o.res) != 1 || o.res[0].Status != wire.StatusOK {
		t.Fatalf("retry results %+v", o.res)
	}
	if ack := prim.node.AckSeq(); ack < base+2 {
		t.Fatalf("retry released at ack seq %d, before group end %d", ack, base+2)
	}
	if prim.node.Status().Degraded {
		t.Fatal("primary degraded: the hit was released without proof")
	}
	if got := prim.eng.Len(); got != 1 {
		t.Fatalf("retry re-executed: engine holds %d elements, want 1", got)
	}
}
