package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"spco/internal/cache"
	"spco/internal/ctrace"
	"spco/internal/engine"
	"spco/internal/match"
	"spco/internal/matchlist"
	"spco/internal/mpi"
	"spco/internal/perf"
	"spco/internal/recov"
	"spco/internal/simmem"
	"spco/internal/telemetry"
)

// The traced run prices each layer by calling its public functions on
// the workload's own op stream, regenerated from the seed: the first
// offlinePairs pairs of every connection, framed and interleaved the
// way the served run sends them.

// reps is how many times each timed layer pass repeats; the median
// counts.
const reps = 3

// replayOps bounds the traced replay pass (it fsyncs like the daemon's
// journal, once per 64 records).
const replayOps = 8192

// perLayer are the --trace 1 metrics, in print order.
var perLayer = []metricDef{
	{"mpi.encode_ns_per_op", "ns"},
	{"mpi.decode_ns_per_op", "ns"},
	{"mpi.reply_ns_per_op", "ns"},
	{"mpi.allocs_per_op", "count"},
	{"daemon.rtt_residual_us_per_frame", "us"},
	{"daemon.lock_wait_s_per_s", "s/s"},
	{"daemon.frames_per_pair", "count"},
	{"engine.ns_per_pair", "ns"},
	{"engine.allocs_per_pair", "count"},
	{"engine.cycles_per_pair", "cycles"},
	{"matchlist.prq_depth_per_arrive", "count"},
	{"matchlist.umq_depth_per_post", "count"},
	{"matchlist.pool_miss_frac", "frac"},
	{"matchlist.native_ns_per_pair", "ns"},
	{"cache.accesses_per_pair", "count"},
	{"cache.l1_hit_frac", "frac"},
	{"cache.l3_hits_per_pair", "count"},
	{"cache.dram_loads_per_pair", "count"},
	{"cache.prefetch_hits_per_pair", "count"},
	{"cache.ns_per_access", "ns"},
	{"hotcache.phase_ns", "ns"},
	{"hotcache.sync_cycles_frac", "frac"},
	{"perf.ns_per_pair", "ns"},
	{"perf.allocs_per_pair", "count"},
	{"telemetry.ns_per_pair", "ns"},
	{"telemetry.scrape_ms", "ms"},
	{"ctrace.ns_per_op", "ns"},
	{"ctrace.allocs_per_op", "count"},
	{"recov.append_ns_per_op", "ns"},
	{"recov.append_p99_us", "us"},
	{"recov.bytes_per_pair", "bytes"},
	{"e2e.cpu_us_per_pair", "us"},
	{"share.mpi_frac", "frac"},
	{"share.engine_frac", "frac"},
	{"share.perf_frac", "frac"},
	{"share.telemetry_frac", "frac"},
	{"share.ctrace_frac", "frac"},
	{"share.recov_frac", "frac"},
	{"share.rest_frac", "frac"},
	{"trace.self_mpi_ns_per_pair", "ns"},
	{"trace.self_engine_ns_per_pair", "ns"},
	{"trace.self_ctrace_ns_per_pair", "ns"},
	{"trace.self_recov_ns_per_pair", "ns"},
	{"trace.self_replay_ns_per_pair", "ns"},
	{"trace.replay_overhead_ns_per_pair", "ns"},
}

// replayFrame is one wire frame of the offline stream.
type replayFrame struct {
	conn  int
	ops   []mpi.WireOp
	batch bool // sent as a batch frame
	pairs int  // pairs this frame completes (its ops are counterparts)
}

type layerMeter struct {
	b   *bench
	w   workload
	rec *ctrace.Recorder

	backlog [][]mpi.WireOp // per context with a standing backlog
	frames  []replayFrame
	pairs   int // pairs in frames
	ops     int // arrive/post ops in frames
}

func newLayerMeter(b *bench, rec *ctrace.Recorder, pairsPerConn int) *layerMeter {
	w := b.w
	m := &layerMeter{b: b, w: w, rec: rec}
	installed := map[uint16]bool{}
	gens := make([]*pairGen, w.conns)
	for c := range gens {
		gens[c] = newPairGen(w, b.seed, c)
		if ctx := w.ctx(c); w.backlog > 0 && !installed[ctx] {
			installed[ctx] = true
			m.backlog = append(m.backlog, backlogOps(w, ctx))
		}
	}
	n := w.windowPairs()
	sincePhase := 0
	for k := 0; k < pairsPerConn/n; k++ {
		for c := range gens {
			first := make([]mpi.WireOp, n)
			second := make([]mpi.WireOp, n)
			for j := 0; j < n; j++ {
				p := gens[c].next()
				first[j], second[j] = p.first, p.second
			}
			m.frames = append(m.frames,
				replayFrame{conn: c, ops: first, batch: w.batch > 0},
				replayFrame{conn: c, ops: second, batch: w.batch > 0, pairs: n})
			m.pairs += n
			m.ops += 2 * n
			if c == 0 && w.phaseEvery > 0 {
				if sincePhase += n; sincePhase >= w.phaseEvery {
					sincePhase -= w.phaseEvery
					m.frames = append(m.frames, replayFrame{conn: 0, ops: []mpi.WireOp{w.phaseOp()}})
				}
			}
		}
	}
	return m
}

// engineSet is one engine per shard, driven the way the daemon's
// shards drive theirs: runs of untraced arrives through ArriveBatch,
// everything else op by op, phases on every shard.
type engineSet struct {
	ens  []*engine.Engine
	pmus []*perf.PMU

	envs    []match.Envelope
	msgs    []uint64
	res     []engine.ArriveResult
	matched int
}

func newEngineSet(w workload, withPMU, withTel bool) (*engineSet, error) {
	es := &engineSet{}
	var coll *telemetry.Collector
	if withTel {
		coll = telemetry.NewCollector(telemetry.Labels{"cmd": "perfbench"})
	}
	for i := 0; i < w.shards; i++ {
		cfg := w.engineConfig()
		cfg.Telemetry = coll
		if withPMU {
			cfg.Perf = perf.New(perf.Options{
				Label:          fmt.Sprintf("perfbench-shard%d", i),
				Experiment:     "daemon",
				SampleInterval: perf.DefaultSampleInterval,
			})
		}
		en, err := engine.New(cfg)
		if err != nil {
			return nil, err
		}
		es.ens = append(es.ens, en)
		es.pmus = append(es.pmus, cfg.Perf)
	}
	return es, nil
}

func (es *engineSet) shard(ctx uint16) int { return int(ctx) % len(es.ens) }

// apply runs one frame's ops and returns the cycles they charged.
func (es *engineSet) apply(ops []mpi.WireOp) uint64 {
	var cycles uint64
	for i := 0; i < len(ops); {
		op := ops[i]
		sh := es.shard(op.Ctx)
		en := es.ens[sh]
		switch op.Kind {
		case mpi.WireArrive:
			if op.Trace == 0 {
				j := i
				es.envs, es.msgs = es.envs[:0], es.msgs[:0]
				for ; j < len(ops) && ops[j].Kind == mpi.WireArrive && ops[j].Trace == 0 && es.shard(ops[j].Ctx) == sh; j++ {
					es.envs = append(es.envs, match.Envelope{Rank: ops[j].Rank, Tag: ops[j].Tag, Ctx: ops[j].Ctx})
					es.msgs = append(es.msgs, ops[j].Handle)
				}
				es.pmus[sh].SetTraceContext(0, 0)
				es.res = en.ArriveBatch(es.envs, es.msgs, es.res)
				for _, r := range es.res {
					cycles += r.Cycles
					if r.Outcome == engine.ArriveMatched {
						es.matched++
					}
				}
				i = j
				continue
			}
			es.pmus[sh].SetTraceContext(op.Trace, op.Span)
			_, out, cy := en.ArriveFull(match.Envelope{Rank: op.Rank, Tag: op.Tag, Ctx: op.Ctx}, op.Handle)
			cycles += cy
			if out == engine.ArriveMatched {
				es.matched++
			}
		case mpi.WirePost:
			_, ok, cy := en.PostRecv(int(op.Rank), int(op.Tag), op.Ctx, op.Handle)
			cycles += cy
			if ok {
				es.matched++
			}
		case mpi.WirePhase:
			for _, e := range es.ens {
				e.BeginComputePhase(op.DurationNS)
			}
		}
		i++
	}
	return cycles
}

// counters sums the layer counters over every shard.
type counters struct {
	st   engine.Stats
	pool matchlist.PoolStats
	hier cache.Stats
}

func (es *engineSet) counters() counters {
	var c counters
	for _, en := range es.ens {
		s := en.Stats()
		c.st.Arrivals += s.Arrivals
		c.st.Recvs += s.Recvs
		c.st.PRQDepthTotal += s.PRQDepthTotal
		c.st.UMQDepthTotal += s.UMQDepthTotal
		c.st.Cycles += s.Cycles
		c.st.SyncCycles += s.SyncCycles
		c.pool = c.pool.Add(en.PoolStats())
		h := en.Hierarchy().Stats()
		c.hier.Accesses += h.Accesses
		c.hier.L1Hits += h.L1Hits
		c.hier.L3Hits += h.L3Hits
		c.hier.DRAMLoads += h.DRAMLoads
		c.hier.PrefHits += h.PrefHits
	}
	return c
}

// rung is one sink configuration of the engine ladder: its engine set
// and every timed replay of the stream through it.
type rung struct {
	es            *engineSet
	ns, allocs    []float64 // per pair, one entry per round
	cycles        uint64    // modeled cycles of the latest replay
	before, after counters  // around the latest replay
}

// replay times one pass of the stream through the rung's engines.
func (m *layerMeter) replay(r *rung) error {
	es := r.es
	es.matched = 0
	r.before = es.counters()
	runtime.GC()
	m0 := mallocs()
	t0 := time.Now()
	var cycles uint64
	for i := range m.frames {
		cycles += es.apply(m.frames[i].ops)
	}
	dt := time.Since(t0)
	r.allocs = append(r.allocs, float64(mallocs()-m0)/float64(m.pairs))
	r.ns = append(r.ns, float64(dt.Nanoseconds())/float64(m.pairs))
	r.after = es.counters()
	r.cycles = cycles
	if es.matched != m.pairs {
		return fmt.Errorf("engine replay matched %d of %d pairs", es.matched, m.pairs)
	}
	return nil
}

// Ladder rounds: at least minRounds, then more until ladderBudget has
// passed, at most maxRounds.
const (
	minRounds    = 3
	maxRounds    = 15
	ladderBudget = 6 * time.Second
)

// ladder replays the stream through four warmed engine sets — bare,
// +telemetry, +PMU, both — one after another in rounds. The host's
// speed drifts by a fifth within a second, so each sink's cost is the
// median over rounds of its difference to the bare replay of the same
// round.
func (m *layerMeter) ladder() (bare, tel, pmu, full *rung, err error) {
	rungs := make([]*rung, 4)
	for i, sinks := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		es, err := newEngineSet(m.w, sinks[0], sinks[1])
		if err != nil {
			return nil, nil, nil, nil, err
		}
		m.warm(es.apply)
		rungs[i] = &rung{es: es}
	}
	start := time.Now()
	for round := 0; round < maxRounds && (round < minRounds || time.Since(start) < ladderBudget); round++ {
		for _, r := range rungs {
			if err := m.replay(r); err != nil {
				return nil, nil, nil, nil, err
			}
		}
	}
	return rungs[0], rungs[1], rungs[2], rungs[3], nil
}

// over is the median over rounds of r's cost minus base's.
func over(r, base []float64) float64 {
	d := make([]float64, len(r))
	for i := range r {
		d[i] = r[i] - base[i]
	}
	return median(d)
}

// warm installs the standing backlog and replays the stream once
// untimed, so timed passes see warm pools, caches and heap. A replay
// leaves the queues at the standing backlog (every pair matched), so
// the same stream replays again with identical matching.
func (m *layerMeter) warm(apply func([]mpi.WireOp) uint64) {
	for _, ops := range m.backlog {
		apply(ops)
	}
	for i := range m.frames {
		apply(m.frames[i].ops)
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measure runs every layer measurement and sets the per-layer metrics;
// served holds the untraced served segment's figures.
func (m *layerMeter) measure(served segStats) {
	b := m.b
	fail := func(err error) { b.errs = append(b.errs, err) }
	if m.pairs == 0 {
		fail(fmt.Errorf("offline stream is empty"))
		return
	}
	pairs := float64(m.pairs)

	enc, dec, rep, codecAllocs := m.codec()
	b.set("mpi.encode_ns_per_op", "ns", enc)
	b.set("mpi.decode_ns_per_op", "ns", dec)
	b.set("mpi.reply_ns_per_op", "ns", rep)
	b.set("mpi.allocs_per_op", "count", codecAllocs)

	bare, withTel, withPMU, full, err := m.ladder()
	if err != nil {
		fail(err)
		return
	}
	for _, r := range []*rung{withTel, withPMU, full} {
		if r.cycles != bare.cycles {
			fail(fmt.Errorf("modeled cycles differ with sinks attached: %d vs bare %d", r.cycles, bare.cycles))
		}
	}
	engineNS, perfNS, telNS, fullNS := median(bare.ns), over(withPMU.ns, bare.ns), over(withTel.ns, bare.ns), median(full.ns)

	codecNSPerOp := enc + dec + rep
	resid := served.meanRTTUS - (codecNSPerOp*served.opsPerFrame+fullNS*served.opsPerFrame/2)/1e3
	b.set("daemon.rtt_residual_us_per_frame", "us", resid)
	for _, d := range []string{"daemon.lock_wait_s_per_s", "daemon.frames_per_pair"} {
		if _, ok := b.metrics[d]; !ok {
			fail(fmt.Errorf("%s: /metrics scrape missing", d))
		}
	}

	b.set("engine.ns_per_pair", "ns", engineNS)
	b.set("engine.allocs_per_pair", "count", median(bare.allocs))
	b.set("engine.cycles_per_pair", "cycles", float64(bare.cycles)/pairs)

	d := bare.after.st
	d0 := bare.before.st
	b.set("matchlist.prq_depth_per_arrive", "count", ratio(d.PRQDepthTotal-d0.PRQDepthTotal, d.Arrivals-d0.Arrivals))
	b.set("matchlist.umq_depth_per_post", "count", ratio(d.UMQDepthTotal-d0.UMQDepthTotal, d.Recvs-d0.Recvs))
	pl, pl0 := bare.after.pool, bare.before.pool
	miss := pl.Misses - pl0.Misses
	b.set("matchlist.pool_miss_frac", "frac", ratio(miss, miss+pl.Gets-pl0.Gets))
	native, err := m.native()
	if err != nil {
		fail(err)
	}
	b.set("matchlist.native_ns_per_pair", "ns", native)

	h, h0 := bare.after.hier, bare.before.hier
	acc := h.Accesses - h0.Accesses
	b.set("cache.accesses_per_pair", "count", float64(acc)/pairs)
	b.set("cache.l1_hit_frac", "frac", ratio(h.L1Hits-h0.L1Hits, acc))
	b.set("cache.l3_hits_per_pair", "count", float64(h.L3Hits-h0.L3Hits)/pairs)
	b.set("cache.dram_loads_per_pair", "count", float64(h.DRAMLoads-h0.DRAMLoads)/pairs)
	b.set("cache.prefetch_hits_per_pair", "count", float64(h.PrefHits-h0.PrefHits)/pairs)
	b.set("cache.ns_per_access", "ns", m.cacheReplay())

	b.set("hotcache.phase_ns", "ns", m.phase(full.es))
	b.set("hotcache.sync_cycles_frac", "frac",
		ratio(full.after.st.SyncCycles-full.before.st.SyncCycles, full.after.st.Cycles-full.before.st.Cycles))

	b.set("perf.ns_per_pair", "ns", perfNS)
	b.set("perf.allocs_per_pair", "count", over(withPMU.allocs, bare.allocs))
	b.set("telemetry.ns_per_pair", "ns", telNS)

	ctNS, ctAllocs := m.ctrace()
	b.set("ctrace.ns_per_op", "ns", ctNS)
	b.set("ctrace.allocs_per_op", "count", ctAllocs)

	appendNS, appendP99, bytesPerPair, err := m.journal()
	if err != nil {
		fail(err)
	}
	b.set("recov.append_ns_per_op", "ns", appendNS)
	b.set("recov.append_p99_us", "us", appendP99)
	b.set("recov.bytes_per_pair", "bytes", bytesPerPair)

	// Shares of the served CPU cost per pair, for the layers on this
	// workload's serving path. The engine share includes matchlist and
	// the cache model; rest is loopback, scheduling, dispatch and the
	// client's own loop.
	base := served.cpuUSPerPair * 1e3
	shares := map[string]float64{
		"mpi":       2 * codecNSPerOp,
		"engine":    engineNS,
		"perf":      perfNS,
		"telemetry": telNS,
	}
	if m.w.traced {
		shares["ctrace"] = 2 * ctNS
	}
	if m.w.journal {
		shares["recov"] = 2 * appendNS
	}
	rest := 1.0
	for _, l := range []string{"mpi", "engine", "perf", "telemetry", "ctrace", "recov"} {
		f := ratioF(shares[l], base)
		rest -= f
		b.set("share."+l+"_frac", "frac", f)
	}
	b.set("share.rest_frac", "frac", rest)

	if err := m.selfTimes(); err != nil {
		fail(err)
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func ratioF(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// codec times the wire codec on the stream's own frames: client-side
// frame encode, server-side frame decode, and one reply written and
// read back per op.
func (m *layerMeter) codec() (enc, dec, rep, allocsPerOp float64) {
	var wire, replies bytes.Buffer
	encode := func(w io.Writer) {
		bw := bufio.NewWriterSize(w, 64<<10)
		for i := range m.frames {
			f := &m.frames[i]
			if f.batch && f.ops[0].Kind != mpi.WirePhase {
				mpi.WriteWireBatch(bw, f.ops)
			} else {
				mpi.WriteWireOp(bw, f.ops[0])
			}
		}
		bw.Flush()
	}
	encode(&wire)
	for i := range m.frames {
		for _, op := range m.frames[i].ops {
			mpi.WriteWireReply(&replies, mpi.WireReply{Kind: op.Kind, Status: mpi.WireOK, Handle: op.Handle, Cycles: 1 << 12})
		}
	}
	nOps := 0
	for i := range m.frames {
		nOps += len(m.frames[i].ops)
	}
	var encs, decs, repls []float64
	var allocs uint64
	for r := 0; r < reps; r++ {
		runtime.GC()
		m0 := mallocs()
		t0 := time.Now()
		encode(io.Discard)
		t1 := time.Now()
		br := bufio.NewReaderSize(bytes.NewReader(wire.Bytes()), 64<<10)
		var ops []mpi.WireOp
		for range m.frames {
			var err error
			if ops, _, err = mpi.ReadWireFrame(br, ops); err != nil {
				m.b.errs = append(m.b.errs, fmt.Errorf("decode: %w", err))
				return
			}
		}
		t2 := time.Now()
		bw := bufio.NewWriterSize(io.Discard, 64<<10)
		rr := bufio.NewReaderSize(bytes.NewReader(replies.Bytes()), 64<<10)
		for i := 0; i < nOps; i++ {
			rp, err := mpi.ReadWireReply(rr)
			if err == nil {
				err = mpi.WriteWireReply(bw, rp)
			}
			if err != nil {
				m.b.errs = append(m.b.errs, fmt.Errorf("reply codec: %w", err))
				return
			}
		}
		bw.Flush()
		t3 := time.Now()
		allocs = mallocs() - m0
		encs = append(encs, float64(t1.Sub(t0).Nanoseconds())/float64(nOps))
		decs = append(decs, float64(t2.Sub(t1).Nanoseconds())/float64(nOps))
		repls = append(repls, float64(t3.Sub(t2).Nanoseconds())/float64(nOps))
	}
	return median(encs), median(decs), median(repls), float64(allocs) / float64(nOps)
}

// nativeSet is the matchlist structures alone: the engine's PRQ/UMQ
// search-then-insert logic with no cache model behind the accessor.
type nativeSet struct {
	prq []matchlist.PostedList
	umq []matchlist.UnexpectedList
}

func newNativeSet(w workload, acc func(shard int) matchlist.Accessor) *nativeSet {
	ns := &nativeSet{}
	ecfg := w.engineConfig()
	for i := 0; i < w.shards; i++ {
		cfg := matchlist.Config{
			Space:          simmem.NewSpace(),
			Acc:            acc(i),
			EntriesPerNode: ecfg.EntriesPerNode,
			Bins:           ecfg.Bins,
			CommSize:       ecfg.CommSize,
			Pool:           ecfg.Pool,
		}
		ns.prq = append(ns.prq, matchlist.NewPosted(ecfg.Kind, cfg))
		ns.umq = append(ns.umq, matchlist.NewUnexpected(ecfg.Kind, cfg))
	}
	return ns
}

func (ns *nativeSet) apply(ops []mpi.WireOp) uint64 {
	return uint64(ns.match(ops))
}

func (ns *nativeSet) match(ops []mpi.WireOp) (matched int) {
	for _, op := range ops {
		sh := int(op.Ctx) % len(ns.prq)
		switch op.Kind {
		case mpi.WireArrive:
			env := match.Envelope{Rank: op.Rank, Tag: op.Tag, Ctx: op.Ctx}
			if _, _, ok := ns.prq[sh].Search(env); ok {
				matched++
			} else {
				ns.umq[sh].Append(match.NewUnexpected(env, op.Handle))
			}
		case mpi.WirePost:
			p := match.NewPosted(int(op.Rank), int(op.Tag), op.Ctx, op.Handle)
			if _, _, ok := ns.umq[sh].SearchBy(p); ok {
				matched++
			} else {
				ns.prq[sh].Post(p)
			}
		}
	}
	return matched
}

// native times the stream through the bare structures with
// FreeAccessor.
func (m *layerMeter) native() (float64, error) {
	var runs []float64
	for r := 0; r < reps; r++ {
		ns := newNativeSet(m.w, func(int) matchlist.Accessor { return matchlist.FreeAccessor{} })
		m.warm(ns.apply)
		runtime.GC()
		matched := 0
		t0 := time.Now()
		for i := range m.frames {
			matched += ns.match(m.frames[i].ops)
		}
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(m.pairs))
		if matched != m.pairs {
			return 0, fmt.Errorf("native replay matched %d of %d pairs", matched, m.pairs)
		}
	}
	return median(runs), nil
}

// recordingAccessor captures the address stream a structure issues.
type recordingAccessor struct {
	addrs []simmem.Addr
	sizes []uint64
}

// recordCap bounds the captured stream per shard.
const recordCap = 1 << 19

func (r *recordingAccessor) Access(addr simmem.Addr, size uint64) uint64 {
	if len(r.addrs) < recordCap {
		r.addrs = append(r.addrs, addr)
		r.sizes = append(r.sizes, size)
	}
	return 0
}

// cacheReplay captures the structures' address stream with a recording
// accessor and times it replayed into a fresh hierarchy of the
// workload's profile: the cache model's cost per demand access.
func (m *layerMeter) cacheReplay() float64 {
	recs := make([]*recordingAccessor, m.w.shards)
	ns := newNativeSet(m.w, func(i int) matchlist.Accessor {
		recs[i] = &recordingAccessor{}
		return recs[i]
	})
	m.warm(ns.apply)
	for _, r := range recs {
		r.addrs, r.sizes = r.addrs[:0], r.sizes[:0]
	}
	for i := range m.frames {
		ns.apply(m.frames[i].ops)
	}
	prof := m.w.engineConfig().Profile
	var runs []float64
	for r := 0; r < reps; r++ {
		n := 0
		var dt time.Duration
		for _, rec := range recs {
			h := cache.New(prof)
			t0 := time.Now()
			for i, a := range rec.addrs {
				h.Access(0, a, rec.sizes[i])
			}
			dt += time.Since(t0)
			n += len(rec.addrs)
		}
		if n > 0 {
			runs = append(runs, float64(dt.Nanoseconds())/float64(n))
		}
	}
	return median(runs)
}

// phase times BeginComputePhase on a full-sink engine left in the
// stream's steady state (the heater sweeps when the workload has one).
func (m *layerMeter) phase(es *engineSet) float64 {
	ns := m.w.phaseNS
	if ns == 0 {
		ns = 1e5
	}
	en := es.ens[0]
	var runs []float64
	for r := 0; r < 33; r++ {
		t0 := time.Now()
		en.BeginComputePhase(ns)
		runs = append(runs, float64(time.Since(t0).Nanoseconds()))
	}
	return median(runs)
}

// traceIDFor is the trace id an op carries, or the one scalar traced
// mode would give it (pair+1) when the workload sends it untraced.
func traceIDFor(op mpi.WireOp) uint64 {
	if op.Trace != 0 {
		return op.Trace
	}
	return op.Handle + 1
}

// recordOps drives the daemon's flight-recorder calls for one frame:
// adopt the op's trace, record its engine span, finish the trace on
// the pair's counterpart.
func recordOps(dr *ctrace.Recorder, f *replayFrame, at float64) {
	for _, op := range f.ops {
		if op.Kind == mpi.WirePhase {
			continue
		}
		ctx := dr.Adopt(ctrace.Context{Trace: traceIDFor(op)}, f.conn, "msg", at)
		dr.Complete(ctx, ctrace.LaneEngine, f.conn, "op", at, 100, ctrace.KV{K: "outcome", V: "matched"})
		if f.pairs > 0 {
			dr.Finish(ctx.Trace, at, "matched")
		}
	}
}

// ctrace times the flight recorder (the daemon's default options) on
// the stream's ops.
func (m *layerMeter) ctrace() (nsPerOp, allocsPerOp float64) {
	var runs []float64
	var allocs uint64
	for r := 0; r < reps; r++ {
		dr := ctrace.New(ctrace.Options{})
		runtime.GC()
		m0 := mallocs()
		t0 := time.Now()
		for i := range m.frames {
			recordOps(dr, &m.frames[i], float64(i))
		}
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(m.ops))
		allocs = mallocs() - m0
	}
	return median(runs), float64(allocs) / float64(m.ops)
}

// openJournal opens a shard journal in a fresh directory under the
// scratch directory, at the daemon's default sync cadence.
func (m *layerMeter) openJournal() (*recov.JournalWriter, func(), error) {
	dir, err := os.MkdirTemp(m.b.scratch, "layer-journal-")
	if err != nil {
		return nil, nil, err
	}
	jw, err := recov.OpenJournal(filepath.Join(dir, "shard-0.journal"), 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return jw, func() { jw.Close(); os.RemoveAll(dir) }, nil
}

// journal times JournalWriter.Append on the stream's ops, as the
// daemon appends them.
func (m *layerMeter) journal() (nsPerOp, p99US, bytesPerPair float64, err error) {
	jw, done, err := m.openJournal()
	if err != nil {
		return 0, 0, 0, err
	}
	defer done()
	var lat []float64
	var sum float64
	pairs := 0
	for i := range m.frames {
		f := &m.frames[i]
		for _, op := range f.ops {
			t0 := time.Now()
			if err := jw.Append(recov.JournalRecord{Session: 1, Op: op}); err != nil {
				return 0, 0, 0, fmt.Errorf("journal append: %w", err)
			}
			d := float64(time.Since(t0).Nanoseconds())
			lat = append(lat, d)
			sum += d
		}
		pairs += f.pairs
		if len(lat) >= replayOps {
			break
		}
	}
	sort.Float64s(lat)
	return sum / float64(len(lat)), quantile(lat, tailQuantile(len(lat))) / 1e3,
		float64(jw.Offset()) / float64(pairs), nil
}

// replayPass serves the stream's first replayOps ops through every
// layer in daemon order — encode, decode, engine with full sinks,
// flight recorder, journal append, replies — and, when rec is set,
// records one trace per frame with a span around each layer call. It
// returns the pass's wall time and the pairs it covered, plus the
// trace id of each frame.
func (m *layerMeter) replayPass(rec *ctrace.Recorder) (time.Duration, int, map[uint64]int, error) {
	es, err := newEngineSet(m.w, true, true)
	if err != nil {
		return 0, 0, nil, err
	}
	m.warm(es.apply)
	jw, done, err := m.openJournal()
	if err != nil {
		return 0, 0, nil, err
	}
	defer done()
	dr := ctrace.New(ctrace.Options{})
	var wire, replies bytes.Buffer
	bw := bufio.NewWriter(&wire)
	br := bufio.NewReader(&wire)
	rw := bufio.NewWriter(&replies)
	rr := bufio.NewReader(&replies)
	var ops []mpi.WireOp
	ids := map[uint64]int{}
	pairs, nOps := 0, 0

	span := func(tctx ctrace.Context, lane ctrace.Lane, conn int, name string) uint64 {
		if rec == nil {
			return 0
		}
		return rec.Begin(tctx, lane, conn, name, nowNS())
	}
	end := func(tctx ctrace.Context, id uint64) {
		if rec != nil {
			rec.End(tctx.Trace, id, nowNS())
		}
	}

	runtime.GC()
	t0 := time.Now()
	for i := range m.frames {
		f := &m.frames[i]
		var tctx ctrace.Context
		if rec != nil {
			tctx = rec.Mint(f.conn, "replay.frame", nowNS())
			ids[tctx.Trace] = f.pairs
		}

		s := span(tctx, ctrace.LaneClient, f.conn, "mpi.encode")
		if f.batch && f.ops[0].Kind != mpi.WirePhase {
			err = mpi.WriteWireBatch(bw, f.ops)
		} else {
			err = mpi.WriteWireOp(bw, f.ops[0])
		}
		if err == nil {
			err = bw.Flush()
		}
		end(tctx, s)

		s = span(tctx, ctrace.LaneWire, f.conn, "mpi.decode")
		if err == nil {
			ops, _, err = mpi.ReadWireFrame(br, ops)
		}
		end(tctx, s)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("replay codec: %w", err)
		}

		s = span(tctx, ctrace.LaneEngine, f.conn, "engine")
		es.apply(ops)
		end(tctx, s)

		s = span(tctx, ctrace.LaneDaemon, f.conn, "ctrace")
		recordOps(dr, f, float64(i))
		end(tctx, s)

		s = span(tctx, ctrace.LaneDaemon, f.conn, "recov")
		for _, op := range ops {
			if err := jw.Append(recov.JournalRecord{Session: 1, Op: op}); err != nil {
				return 0, 0, nil, fmt.Errorf("replay journal: %w", err)
			}
		}
		end(tctx, s)

		s = span(tctx, ctrace.LaneWire, f.conn, "mpi.reply")
		for _, op := range ops {
			mpi.WriteWireReply(rw, mpi.WireReply{Kind: op.Kind, Status: mpi.WireOK, Handle: op.Handle})
		}
		err = rw.Flush()
		for range ops {
			if err == nil {
				_, err = mpi.ReadWireReply(rr)
			}
		}
		end(tctx, s)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("replay replies: %w", err)
		}

		if rec != nil {
			rec.Finish(tctx.Trace, nowNS(), "served")
		}
		pairs += f.pairs
		if nOps += len(ops); nOps >= replayOps {
			break
		}
	}
	return time.Since(t0), pairs, ids, nil
}

// selfTimes runs the replay pass untraced and traced, alternating,
// and reports each layer's self time from the traced passes' spans (a
// span's duration minus the part its children cover) and the tracing
// overhead as the median over rounds of traced minus untraced.
func (m *layerMeter) selfTimes() error {
	var plain, traced []float64 // ns per pair, paired by round
	ids := map[uint64]int{}
	tracedPairs := 0
	for r := 0; r < reps; r++ {
		dt, pairs, _, err := m.replayPass(nil)
		if err != nil {
			return err
		}
		plain = append(plain, float64(dt.Nanoseconds())/float64(pairs))
		dt, pairs, got, err := m.replayPass(m.rec)
		if err != nil {
			return err
		}
		traced = append(traced, float64(dt.Nanoseconds())/float64(pairs))
		tracedPairs += pairs
		for id, n := range got {
			ids[id] = n
		}
	}
	self := map[string]float64{}
	for _, t := range m.rec.Retained() {
		if _, ok := ids[t.ID]; !ok {
			continue
		}
		var children float64
		for _, ev := range t.Events {
			if ev.Span == t.Root {
				continue
			}
			children += ev.DurNS
			layer := ev.Name
			if strings.HasPrefix(layer, "mpi.") {
				layer = "mpi"
			}
			self[layer] += ev.DurNS
		}
		self["replay"] += t.LatencyNS() - children
	}
	p := float64(tracedPairs)
	for _, l := range []string{"mpi", "engine", "ctrace", "recov", "replay"} {
		m.b.set("trace.self_"+l+"_ns_per_pair", "ns", self[l]/p)
	}
	m.b.set("trace.replay_overhead_ns_per_pair", "ns", over(traced, plain))
	return nil
}
