package main

import (
	"math/rand/v2"
)

// bop is one generated queue operation, independent of the layer that
// will execute it. Each target converts it to its own op type.
type bop struct {
	push  bool
	value uint64
	meta  uint64
}

// cause classifies one operation's outcome. Everything but causeOK is a
// refused or errored op and counts toward failed_frac.
type cause uint8

const (
	causeOK cause = iota
	causeFull
	causeEmpty
	causeBackpressure
	causeOverloaded
	causeNotOwner
	causeTransport
	numCauses
)

var causeNames = [numCauses]string{"ok", "full", "empty", "backpressure", "overloaded", "not_owner", "transport"}

// bres is one operation's outcome; value and meta are the popped
// element for a successful pop.
type bres struct {
	cause cause
	value uint64
	meta  uint64
}

// rankKind selects a workload's rank process.
type rankKind uint8

const (
	// ranksUniform16 draws uniform 16-bit ranks, the paper's rank width.
	ranksUniform16 rankKind = iota
	// ranksMonotone draws near-monotone ranks like STFQ virtual finish
	// times: push index × monotoneStep plus a seeded window.
	ranksMonotone
)

const (
	monotoneStep   = 8
	monotoneWindow = 1 << 16
)

// gen produces one caller's seeded op stream. The same (seed, stream)
// pair always yields the same ops; metas are unique per generator, so
// every pushed element is distinct.
type gen struct {
	rng    *rand.Rand
	ranks  rankKind
	caller uint64
	pushes uint64
}

// newGen builds the generator of one caller. stream separates the
// callers, rounds and rungs of one run so their streams differ.
func newGen(seed, stream uint64, ranks rankKind, caller int) *gen {
	return &gen{
		rng:    rand.New(rand.NewPCG(seed, stream)),
		ranks:  ranks,
		caller: uint64(caller),
	}
}

// element returns the next pushed element.
func (g *gen) element() (value, meta uint64) {
	switch g.ranks {
	case ranksMonotone:
		value = g.pushes*monotoneStep + g.rng.Uint64N(monotoneWindow)
	default:
		value = g.rng.Uint64() & 0xffff
	}
	meta = g.caller<<48 | g.pushes
	g.pushes++
	return value, meta
}

// fill writes one batch into b: the first pushes entries are pushes,
// the rest pops. A balanced batch has pushes == len(b)/2; a prefill
// batch has pushes == len(b).
func (g *gen) fill(b []bop, pushes int) {
	for i := range b {
		if i < pushes {
			v, m := g.element()
			b[i] = bop{push: true, value: v, meta: m}
		} else {
			b[i] = bop{}
		}
	}
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// multiset is an order-independent fingerprint of a bag of elements:
// the count plus the sum and xor of a mixed hash of each element. It
// takes constant memory, so checking conservation cannot inflate the
// heap the benchmark measures.
type multiset struct {
	n   uint64
	sum uint64
	xor uint64
}

func (m *multiset) add(value, meta uint64) {
	h := mix64(value ^ mix64(meta))
	m.n++
	m.sum += h
	m.xor ^= h
}

func (m *multiset) merge(o multiset) {
	m.n += o.n
	m.sum += o.sum
	m.xor ^= o.xor
}
