package replic

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// fakePrimary serves one replication stream of crafted record frames
// to a follower and records the follower's highest ack.
type fakePrimary struct {
	addr string
	ack  atomic.Uint64
}

// startFakePrimary accepts one follower, grants its stream, and sends
// frames as consecutive TReplRecords frames from sequence 1. It then
// stops listening, so a follower whose stream fails cannot reattach.
func startFakePrimary(t *testing.T, frames ...[]Record) *fakePrimary {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fp := &fakePrimary{addr: ln.Addr().String()}
	var tip uint64
	for _, f := range frames {
		tip += uint64(len(f))
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := wire.ReadFrame(conn); err != nil {
			return
		}
		if err := wire.WriteFrame(conn, wire.TReplOK, 1, AppendReplOK(nil, tip, 0x5EED)); err != nil {
			return
		}
		next := uint64(1)
		for _, f := range frames {
			if err := wire.WriteFrame(conn, wire.TReplRecords, 0, AppendReplRecords(nil, next, f)); err != nil {
				return
			}
			next += uint64(len(f))
		}
		for {
			f, err := wire.ReadFrame(conn)
			if err != nil {
				return
			}
			if seq, err := ParseSeq(f.Payload); err == nil && f.Type == wire.TReplAck {
				fp.ack.Store(seq)
			}
		}
	}()
	return fp
}

// group marks recs as one atomic log group.
func group(recs ...Record) []Record {
	recs[len(recs)-1].End = true
	return recs
}

func push(shard uint32, lsn, v uint64) Record {
	return Record{Kind: RecOp, Shard: shard, LSN: lsn, Op: OpPush, Value: v, Meta: v}
}

func pop(shard uint32, lsn, v uint64) Record {
	return Record{Kind: RecOp, Shard: shard, LSN: lsn, Op: OpPop, Value: v, Meta: v}
}

// startStreamedFollower starts a follower of fp whose first stream
// error is delivered on the returned channel.
func startStreamedFollower(t *testing.T, fp *fakePrimary) (*tnode, <-chan string) {
	t.Helper()
	ended := make(chan string, 1)
	fol := startNode(t, testGeom, Config{
		PrimaryAddr: fp.addr,
		Logf: func(format string, args ...any) {
			if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "replic: stream ended") {
				select {
				case ended <- line:
				default:
				}
			}
		},
	})
	t.Cleanup(func() { fol.stop(2 * time.Second) })
	return fol, ended
}

// expectStreamError waits for the follower's first stream error and
// checks it names the expected failure.
func expectStreamError(t *testing.T, ended <-chan string, want string) {
	t.Helper()
	select {
	case line := <-ended:
		if !strings.Contains(line, want) {
			t.Fatalf("stream ended with %q, want it to contain %q", line, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("stream never failed; want %q", want)
	}
}

// TestBatchedApplyDetectsPopDivergence feeds a group whose shard-1 run
// holds a pop, mid-run, that disagrees with the follower's own pop. The
// run is applied with one engine call; the check must still name the
// record, and the group must not be acknowledged.
func TestBatchedApplyDetectsPopDivergence(t *testing.T) {
	fp := startFakePrimary(t, group(
		push(0, 1, 5),
		push(1, 1, 10),
		push(1, 2, 20),
		pop(1, 3, 20), // the follower pops 10
		push(1, 4, 30),
	))
	fol, ended := startStreamedFollower(t, fp)
	expectStreamError(t, ended, "divergence: shard 1 lsn 3 popped (10,10), primary popped (20,20)")
	if ack := fp.ack.Load(); ack != 0 {
		t.Fatalf("diverged group acknowledged at seq %d", ack)
	}
	if pos := fol.node.Status().AckSeq; pos != 0 {
		t.Fatalf("follower frontier advanced to %d over a diverged group", pos)
	}
}

// TestBatchedApplyDetectsLSNMismatch feeds a shard run in which two
// records claim the same LSN: every claimed LSN is reachable, so the
// run is applied, and the re-stamp check must catch the record the
// follower's engine numbers differently.
func TestBatchedApplyDetectsLSNMismatch(t *testing.T) {
	fp := startFakePrimary(t, group(
		push(1, 1, 10),
		push(1, 2, 20),
		push(1, 2, 25),
		push(1, 3, 30),
	))
	fol, ended := startStreamedFollower(t, fp)
	expectStreamError(t, ended, "shard 1 applied lsn 3, primary says 2")
	if ack := fp.ack.Load(); ack != 0 {
		t.Fatalf("mismatched group acknowledged at seq %d", ack)
	}
	if pos := fol.node.Status().AckSeq; pos != 0 {
		t.Fatalf("follower frontier advanced to %d over a mismatched group", pos)
	}
}

// TestApplyMutuallyInvertedGroups streams two groups whose per-shard
// LSNs invert against each other — A holds shard 0's LSNs 3-4 and
// shard 1's 1-2, B the reverse — in separate frames. Neither group is
// applyable alone; the fixpoint must apply both together, each shard's
// run (pops included) in LSN order, and acknowledge the whole stream.
func TestApplyMutuallyInvertedGroups(t *testing.T) {
	a := group(push(0, 3, 30), pop(0, 4, 10), push(1, 1, 100), push(1, 2, 200))
	b := group(push(0, 1, 10), push(0, 2, 20), push(1, 3, 300), pop(1, 4, 100))
	fp := startFakePrimary(t, a, b)
	fol, ended := startStreamedFollower(t, fp)
	deadline := time.Now().Add(5 * time.Second)
	for fp.ack.Load() != uint64(len(a)+len(b)) {
		select {
		case line := <-ended:
			t.Fatalf("stream failed: %s", line)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("acked seq %d, want %d", fp.ack.Load(), len(a)+len(b))
		}
		time.Sleep(2 * time.Millisecond)
	}
	for sh := 0; sh < 2; sh++ {
		if got := fol.eng.ShardLSN(sh); got != 4 {
			t.Fatalf("shard %d LSN %d, want 4", sh, got)
		}
	}
	if got := fol.eng.Len(); got != 4 {
		t.Fatalf("follower holds %d elements, want 4", got)
	}
}

// BenchmarkFollowerApply pushes 64-op group frames — half pushes, half
// pops, each with its dedup record, as a synchronous primary ships them
// — through the follower's decode and apply path. The history is made
// on a primary engine outside the timed region.
func BenchmarkFollowerApply(b *testing.B) {
	const (
		groupOps = 64
		chunk    = 256 // groups generated per untimed refill
		prefill  = 4096
	)
	geom := engine.Config{Shards: 1, Order: 3, Levels: 10}
	prim, err := engine.New(geom)
	if err != nil {
		b.Fatal(err)
	}
	defer prim.Close()
	feng, err := engine.New(geom)
	if err != nil {
		b.Fatal(err)
	}
	defer feng.Close()
	fol := Attach(feng, wire.NewServer(feng), Config{Engine: geom})
	defer fol.Close()

	rng := rand.New(rand.NewSource(1))
	var (
		seq, reqID uint64
		ops        = make([]engine.Op, groupOps)
		results    = make([]engine.Result, groupOps)
		wres       = make([]wire.Result, groupOps)
		buf        = make([]grp, 0, 1)
	)
	// frame runs one batch on the primary engine and encodes its log
	// group as a TReplRecords payload.
	frame := func(pushes int) []byte {
		reqID++
		for i := range ops {
			if i < pushes {
				ops[i] = engine.PushOp(core.Element{Value: rng.Uint64() >> 40, Meta: reqID})
			} else {
				ops[i] = engine.PopOp()
			}
		}
		prim.SubmitInto(ops, results)
		for i, r := range results {
			wres[i] = wire.Result{Status: wire.StatusOK, Value: r.Elem.Value, Meta: r.Elem.Meta}
		}
		recs := groupRecords(1, reqID, ops, results, wire.AppendResults(nil, wres))
		recs[len(recs)-1].End = true
		p := AppendReplRecords(nil, seq+1, recs)
		seq += uint64(len(recs))
		return p
	}
	apply := func(p []byte) {
		first, recs, err := ParseReplRecords(p)
		if err != nil {
			b.Fatal(err)
		}
		g := grp{start: first, end: first + uint64(len(recs)) - 1, recs: recs}
		rest, err := fol.applyReady(append(buf[:0], g))
		if err != nil || len(rest) != 0 {
			b.Fatalf("apply: %d groups left, err %v", len(rest), err)
		}
		delete(fol.appliedGroups, g.start) // the frontier advance
	}
	for i := 0; i < prefill/groupOps; i++ {
		apply(frame(groupOps))
	}

	var (
		ms      runtime.MemStats
		mallocs uint64
		frames  [][]byte
	)
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for done := 0; done < b.N; {
		n := min(chunk, b.N-done)
		frames = frames[:0]
		for i := 0; i < n; i++ {
			frames = append(frames, frame(groupOps/2))
		}
		fol.log = NewLog() // the follower's own log would grow with b.N
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		for _, p := range frames {
			apply(p)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		done += n
	}
	records := float64(b.N) * groupOps
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
	b.ReportMetric(float64(mallocs)/records, "allocs/record")
}
