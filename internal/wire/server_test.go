package wire

import (
	"context"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// startServer spins up an engine + wire server on a loopback listener
// and returns the dial address plus a shutdown func.
func startServer(t *testing.T, cfg engine.Config) (string, func()) {
	t.Helper()
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e)
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
		e.Close()
	}
}

// TestClientServerRoundTrip pushes and pops over a real TCP loopback
// connection and checks ranks come back in merged sorted order.
func TestClientServerRoundTrip(t *testing.T) {
	addr, stop := startServer(t, engine.Config{
		Shards: 4, Order: 2, Levels: 6, Routing: engine.RouteRank,
	})
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Info().Shards != 4 {
		t.Fatalf("handshake shards = %d", c.Info().Shards)
	}

	ops := make([]Op, 0, 64)
	for i := 0; i < 64; i++ {
		ops = append(ops, Op{Kind: OpPush, Value: uint64(64 - i), Meta: uint64(i)})
	}
	res, err := c.Do(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Status != StatusOK {
			t.Fatalf("push %d: status %v", i, r.Status)
		}
	}

	pops := make([]Op, 64)
	for i := range pops {
		pops[i] = Op{Kind: OpPop}
	}
	res, err = c.Do(pops)
	if err != nil {
		t.Fatal(err)
	}
	values := []uint64{}
	for i, r := range res {
		if r.Status != StatusOK {
			t.Fatalf("pop %d: status %v", i, r.Status)
		}
		values = append(values, r.Value)
	}
	if !sort.SliceIsSorted(values, func(i, j int) bool { return values[i] < values[j] }) {
		t.Fatalf("pops not sorted: %v", values)
	}

	// Pop on empty: typed status, not an error.
	res, err = c.Do([]Op{{Kind: OpPop}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != StatusEmpty {
		t.Fatalf("pop on empty: status %v", res[0].Status)
	}
}

// TestPipelinedClients runs concurrent goroutines over one connection
// plus a second connection, exercising id-matched pipelining and the
// server's coalescing writer.
func TestPipelinedClients(t *testing.T) {
	addr, stop := startServer(t, engine.Config{
		Shards: 2, Order: 2, Levels: 8, Routing: engine.RouteHash,
	})
	defer stop()

	clients := make([]*Client, 2)
	for i := range clients {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	var wg sync.WaitGroup
	var pushed, popped sync.Map
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%len(clients)]
			for i := 0; i < 30; i++ {
				ops := []Op{
					{Kind: OpPush, Value: uint64(w*1000 + i), Meta: uint64(w)<<32 | uint64(i)},
					{Kind: OpPop},
				}
				res, err := c.Do(ops)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if res[0].Status == StatusOK {
					pushed.Store(ops[0].Meta, ops[0].Value)
				}
				if res[1].Status == StatusOK {
					popped.Store(res[1].Meta, res[1].Value)
				}
			}
		}(w)
	}
	wg.Wait()

	// Every popped element must have been pushed with the same rank.
	popped.Range(func(k, v any) bool {
		want, ok := pushed.Load(k)
		if !ok {
			t.Errorf("popped element meta %v never pushed", k)
			return false
		}
		if want != v {
			t.Errorf("meta %v: popped rank %v, pushed %v", k, v, want)
		}
		return true
	})
}

// TestGatedResponsesLeaveInOrder pipelines three batches on one
// connection behind BatchHook gates: the first two gated, the third
// ungated. Every batch must execute without waiting on a gate, nothing
// may leave while the first gate is shut — even once the second has
// opened — and the responses must leave in request order.
func TestGatedResponsesLeaveInOrder(t *testing.T) {
	e, err := engine.New(engine.Config{Shards: 1, Order: 2, Levels: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := NewServer(e)
	gates := map[uint64]chan struct{}{1: make(chan struct{}), 2: make(chan struct{})}
	srv.SetBatchHook(func(_, reqID uint64, _ []engine.Op, _ []engine.Result, _ []byte) func() {
		if ch, ok := gates[reqID]; ok {
			return func() { <-ch }
		}
		return nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, THello, 0, AppendHello(nil, 0)); err != nil {
		t.Fatal(err)
	}
	if f, err := ReadFrame(conn); err != nil || f.Type != THelloOK {
		t.Fatalf("handshake: %+v %v", f, err)
	}
	for id := uint64(1); id <= 3; id++ {
		if err := WriteFrame(conn, TBatch, id, AppendOps(nil, []Op{{Kind: OpPush, Value: id, Meta: id}})); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.ShardLSN(0) != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("executed %d of 3 batches behind a shut gate", e.ShardLSN(0))
		}
		time.Sleep(time.Millisecond)
	}

	close(gates[2])
	conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if f, err := ReadFrame(conn); err == nil {
		t.Fatalf("response id %d left while the first gate was shut", f.ID)
	}
	// Nothing was sent, so the timed-out read consumed nothing.
	close(gates[1])
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for id := uint64(1); id <= 3; id++ {
		f, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != TBatchOK || f.ID != id {
			t.Fatalf("response %d: type %d id %d", id, f.Type, f.ID)
		}
	}
}
