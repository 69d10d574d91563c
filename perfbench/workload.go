package main

import (
	"fmt"

	"spco/internal/cache"
	"spco/internal/engine"
	"spco/internal/fault"
	"spco/internal/matchlist"
	"spco/internal/mpi"
)

// workload is one served traffic mix. Every workload runs the engine
// configuration `spco-daemon serve` hosts (pooled LLA-8 on the Sandy
// Bridge profile, PMU + telemetry collector + default flight recorder)
// and is driven closed loop from 2 client connections over loopback:
// MPI ranks block on each reply, so a closed loop is the honest model.
type workload struct {
	name string
	why  string

	shards int
	conns  int

	// batch is the pairs per window; each window is two DoBatch frames
	// (every pair's opener, then every counterpart). 0 sends scalar ops.
	batch int

	// session dials DialSession instead of Dial; traced stamps every op
	// with trace id = pair+1, as daemon.RunLoad's scalar mode does.
	session bool
	traced  bool

	// backlog is the standing posted receives installed per context at
	// set-up and never matched: every arrive scans past them.
	backlog int

	// hot attaches the heater; connection 0 sends Phase(phaseNS) after
	// every phaseEvery of its pairs.
	hot        bool
	phaseEvery int
	phaseNS    float64

	// journal turns on the crash-recovery journal at the default sync
	// cadence, in a fresh directory on the checkout's disk.
	journal bool

	// offlinePairs is the per-connection pair count the traced run
	// replays through each layer in isolation.
	offlinePairs int
}

var workloads = []workload{
	{
		name:         "batch-short",
		why:          "64-pair batch windows over near-empty queues: codec, dispatch, PMU and telemetry cost; the cache model is nearly idle",
		shards:       2,
		conns:        2,
		batch:        64,
		offlinePairs: 32768,
	},
	{
		name:         "backlog-deep",
		why:          "same frames behind a 1024-deep standing PRQ per context with the heater on: matchlist search and the cache model dominate",
		shards:       2,
		conns:        2,
		batch:        64,
		backlog:      1024,
		hot:          true,
		phaseEvery:   1024,
		phaseNS:      1e5,
		offlinePairs: 1024,
	},
	{
		name:         "scalar-journal",
		why:          "scalar traced ops from 2 session connections on 1 shard with the journal on: per-op syscalls, trace adopt and journal write/fsync",
		shards:       1,
		conns:        2,
		session:      true,
		traced:       true,
		journal:      true,
		offlinePairs: 16384,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// windowPairs is the pairs one window completes.
func (w workload) windowPairs() int {
	if w.batch > 0 {
		return w.batch
	}
	return 1
}

// ctx is connection conn's communicator context. On a multi-shard
// daemon each connection gets its own context, and so its own shard
// (ctx mod shards); on one shard every connection shares context 1.
func (w workload) ctx(conn int) uint16 {
	if w.shards == 1 {
		return 1
	}
	return uint16(1 + conn)
}

// standingPRQ is the daemon-wide PRQ depth once every pair has matched.
func (w workload) standingPRQ() int {
	ctxs := map[uint16]bool{}
	for c := 0; c < w.conns; c++ {
		ctxs[w.ctx(c)] = true
	}
	return w.backlog * len(ctxs)
}

// engineConfig is `spco-daemon serve -list lla -k 8 -pool [-hot]` with
// its flag defaults.
func (w workload) engineConfig() engine.Config {
	return engine.Config{
		Profile:           cache.SandyBridge,
		Kind:              matchlist.KindLLA,
		EntriesPerNode:    8,
		CommSize:          64,
		Bins:              256,
		Pool:              true,
		HotCache:          w.hot,
		ResidencyInterval: 200_000,
	}
}

// senders is the number of source ranks pairs round-robin over.
const senders = 8

// backlogTag starts the tag range of standing receives; pair tags are
// the pair index and stay far below it.
const backlogTag = 1 << 30

// pair is one arrive/post pair with a globally unique tag: the opener
// must not match anything and the counterpart must match the pair's
// own handle.
type pair struct {
	i             uint64
	first, second mpi.WireOp
}

// prepost reports whether the pair posts its receive first.
func (p pair) prepost() bool { return p.first.Kind == mpi.WirePost }

// pairGen generates one connection's seeded pair stream. Pair k of
// connection c is global pair k*conns+c, and the prepost choice draws
// from fault.NewRNG(seed).Fork(c+11), as daemon.RunLoad does.
type pairGen struct {
	rng    *fault.RNG
	conn   int
	conns  int
	ctx    uint16
	traced bool
	k      int
}

func newPairGen(w workload, seed uint64, conn int) *pairGen {
	return &pairGen{
		rng:    fault.NewRNG(seed).Fork(uint64(conn) + 11),
		conn:   conn,
		conns:  w.conns,
		ctx:    w.ctx(conn),
		traced: w.traced,
	}
}

func (g *pairGen) next() pair {
	i := uint64(g.k*g.conns + g.conn)
	g.k++
	op := mpi.WireOp{Rank: int32(i % senders), Tag: int32(i), Ctx: g.ctx, Handle: i}
	if g.traced {
		op.Trace = i + 1
	}
	arrive, post := op, op
	arrive.Kind = mpi.WireArrive
	post.Kind = mpi.WirePost
	if g.rng.Float64() < 0.5 {
		return pair{i: i, first: post, second: arrive}
	}
	return pair{i: i, first: arrive, second: post}
}

// backlogOps are the standing receives for one context: tags no pair
// uses, handles no pair uses.
func backlogOps(w workload, ctx uint16) []mpi.WireOp {
	ops := make([]mpi.WireOp, w.backlog)
	for j := range ops {
		ops[j] = mpi.WireOp{Kind: mpi.WirePost, Rank: int32(j % senders), Tag: int32(backlogTag + j),
			Ctx: ctx, Handle: 1<<40 | uint64(ctx)<<20 | uint64(j)}
	}
	return ops
}

// phaseOp is connection 0's compute phase.
func (w workload) phaseOp() mpi.WireOp {
	return mpi.WireOp{Kind: mpi.WirePhase, DurationNS: w.phaseNS}
}

// auditPair checks a pair's two replies: both applied, the opener
// unmatched (tags are unique), the counterpart matched to the pair's
// own handle.
func auditPair(p pair, r1, r2 mpi.WireReply) bool {
	if r1.Status != mpi.WireOK || r2.Status != mpi.WireOK {
		return false
	}
	if p.prepost() {
		return r1.Outcome == 0 && r2.Outcome == mpi.WireOutMatched && r2.Handle == p.i
	}
	return r1.Outcome == mpi.WireOutQueued && r2.Outcome == 1 && r2.Handle == p.i
}
