package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spco/internal/ctrace"
	"spco/internal/daemon"
	"spco/internal/mpi"
	"spco/internal/perf"
	"spco/internal/telemetry"
)

// clock0 is the origin of the benchmark's trace clock.
var clock0 = time.Now()

// nowNS is the trace clock: host nanoseconds since clock0.
func nowNS() float64 { return float64(time.Since(clock0).Nanoseconds()) }

// served is an in-process daemon with its connected clients, the
// standing backlog installed.
type served struct {
	w        workload
	cal      *calibrator
	srv      *daemon.Server
	errc     chan error
	clients  []*daemon.Client          // plain connections
	sessions []*daemon.ResilientClient // session connections (w.session)
	dir      string                    // journal directory ("" without a journal)

	// setupCycles sums the reply cycles of the backlog install.
	setupCycles uint64
}

// startServed is the set-up setup_s times: daemon start (the
// configuration `spco-daemon serve` always attaches: PMU, telemetry
// collector, default flight recorder), journal open, dials and the
// backlog install.
func startServed(w workload, cal *calibrator, scratch string) (*served, error) {
	s := &served{w: w, cal: cal, errc: make(chan error, 1)}
	cfg := daemon.Config{
		Engine:    w.engineConfig(),
		Shards:    w.shards,
		Collector: telemetry.NewCollector(telemetry.Labels{"cmd": "daemon"}),
		PMU: perf.New(perf.Options{
			Label:          "spco-daemon",
			Experiment:     "daemon",
			SampleInterval: perf.DefaultSampleInterval,
		}),
		Trace:   ctrace.New(ctrace.Options{}),
		PerfOut: io.Discard,
	}
	if w.journal {
		dir, err := os.MkdirTemp(scratch, "journal-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
		cfg.JournalDir = dir
	}
	srv, err := daemon.New(cfg)
	if err != nil {
		os.RemoveAll(s.dir)
		return nil, fmt.Errorf("daemon: %w", err)
	}
	s.srv = srv
	go func() { s.errc <- srv.Run(nil) }()

	installed := map[uint16]bool{}
	for c := 0; c < w.conns; c++ {
		if w.session {
			var rc *daemon.ResilientClient
			rc, err = daemon.DialResilient(daemon.ResilientConfig{Addr: srv.Addr()})
			s.sessions = append(s.sessions, rc)
		} else {
			var cl *daemon.Client
			cl, err = daemon.Dial(srv.Addr())
			s.clients = append(s.clients, cl)
		}
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("dial: %w", err)
		}
		ctx := w.ctx(c)
		if w.backlog == 0 || installed[ctx] {
			continue
		}
		installed[ctx] = true
		reps, err := s.send(c, backlogOps(w, ctx), nil)
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("backlog install: %w", err)
		}
		for _, r := range reps {
			if r.Status != mpi.WireOK || r.Outcome != 0 {
				s.stop()
				return nil, fmt.Errorf("backlog install: reply status %d outcome %d", r.Status, r.Outcome)
			}
			s.setupCycles += r.Cycles
		}
	}
	return s, nil
}

// conns is the number of load connections.
func (s *served) conns() int { return len(s.clients) + len(s.sessions) }

// stop closes the clients, drains the daemon, waits for it and removes
// the journal directory.
func (s *served) stop() error {
	for _, cl := range s.clients {
		if cl != nil {
			cl.Close()
		}
	}
	for _, rc := range s.sessions {
		if rc != nil {
			rc.Close()
		}
	}
	s.srv.Stop()
	err := <-s.errc
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// A segment alternates load slices of sliceDur with calibrations,
// during which every connection is parked (see calib.go).
const sliceDur = 250 * time.Millisecond

// segPlan is one stretch of closed-loop load.
type segPlan struct {
	seconds  float64 // run length, calibrations included (ignored when maxPairs > 0)
	maxPairs int     // per connection; > 0 runs one slice of a fixed pair count instead
	scrape   bool    // time GET /metrics every 200ms while the load runs
}

// connLoad is one connection's tally for a segment. Its memory is fixed:
// round trips go into a histogram, not a log.
type connLoad struct {
	rtt    latHist // host ns
	frames int
	ops    int
	pairs  int
	failed int
	cycles uint64
	err    error
}

// segResult is one segment's merged tally.
type segResult struct {
	rtt         latHist
	frames, ops int
	pairs       int
	failed      int
	cycles      uint64
	errs        []error
	scrapes     []float64 // /metrics scrape times, ms
	slices      int
	wall, cpu   time.Duration // summed over the load slices
	mallocs     uint64        // over the whole segment
}

// gate parks and releases the connections between load slices.
type gate struct {
	open    []chan struct{} // per connection: a slice starts
	closing atomic.Bool
	parked  sync.WaitGroup
}

// runSegment drives every connection closed loop for one segment, in
// load slices each preceded by a calibration. The pair generators carry
// over between segments.
func (s *served) runSegment(gens []*pairGen, p segPlan) segResult {
	var res segResult
	loads := make([]connLoad, s.conns())
	g := &gate{open: make([]chan struct{}, s.conns())}
	var conns, aux sync.WaitGroup
	for c := range g.open {
		g.open[c] = make(chan struct{}, 1)
		conns.Add(1)
		go func(c int) {
			defer conns.Done()
			s.driveConn(c, gens[c], g, p.maxPairs, &loads[c])
		}(c)
	}
	stop := make(chan struct{})
	if p.scrape {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for {
				t0 := time.Now()
				if _, err := s.scrape(); err == nil {
					res.scrapes = append(res.scrapes, float64(time.Since(t0).Nanoseconds())/1e6)
				}
				select {
				case <-time.After(200 * time.Millisecond):
				case <-stop:
					return
				}
			}
		}()
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	end := start.Add(time.Duration(p.seconds * float64(time.Second)))
	for {
		if err := s.cal.measure(); err != nil {
			res.errs = append(res.errs, err)
		}
		g.closing.Store(false)
		g.parked.Add(len(g.open))
		cpu0, t0 := cpuTime(), time.Now()
		for _, ch := range g.open {
			ch <- struct{}{}
		}
		if p.maxPairs == 0 {
			time.Sleep(time.Until(minTime(t0.Add(sliceDur), end)))
			g.closing.Store(true)
		}
		g.parked.Wait()
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		res.slices++
		res.wall += wall
		res.cpu += cpu
		if p.maxPairs > 0 || !time.Now().Before(end) {
			break
		}
	}
	for _, ch := range g.open {
		close(ch)
	}
	conns.Wait()
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	close(stop)
	aux.Wait()

	for i := range loads {
		l := &loads[i]
		res.rtt.merge(&l.rtt)
		res.frames += l.frames
		res.ops += l.ops
		res.pairs += l.pairs
		res.failed += l.failed
		res.cycles += l.cycles
		if l.err != nil {
			res.errs = append(res.errs, l.err)
		}
	}
	return res
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// driveConn runs one connection's closed loop, a slice at a time: a
// window of pairs per iteration (one pair in scalar mode), openers then
// counterparts, each pair audited exactly; connection 0 adds the
// workload's phases. After a failure the connection only parks.
func (s *served) driveConn(conn int, gen *pairGen, g *gate, maxPairs int, out *connLoad) {
	w := s.w
	n := w.windowPairs()
	pairs := make([]pair, n)
	first := make([]mpi.WireOp, n)
	second := make([]mpi.WireOp, n)
	phase := make([]mpi.WireOp, 1)
	var reps1, reps2, repsP []mpi.WireReply
	sincePhase := 0
	for range g.open[conn] {
		for out.err == nil && !g.closing.Load() && (maxPairs == 0 || out.pairs < maxPairs) {
			for k := range pairs {
				pairs[k] = gen.next()
				first[k] = pairs[k].first
				second[k] = pairs[k].second
			}
			var err error
			reps1, err = s.exchange(conn, first, reps1, out)
			if err == nil {
				reps2, err = s.exchange(conn, second, reps2, out)
			}
			if err != nil {
				out.err = fmt.Errorf("conn %d: %w", conn, err)
				out.failed += n
				break
			}
			for k := range pairs {
				if !auditPair(pairs[k], reps1[k], reps2[k]) {
					out.failed++
				}
				out.cycles += reps1[k].Cycles + reps2[k].Cycles
			}
			out.pairs += n
			if conn == 0 && w.phaseEvery > 0 {
				sincePhase += n
				if sincePhase >= w.phaseEvery {
					sincePhase -= w.phaseEvery
					phase[0] = w.phaseOp()
					if repsP, err = s.exchange(conn, phase, repsP, out); err != nil {
						out.err = fmt.Errorf("conn %d phase: %w", conn, err)
						out.failed++
					}
				}
			}
		}
		g.parked.Done()
	}
}

// exchange sends one frame and records its client-timed round trip.
func (s *served) exchange(conn int, ops []mpi.WireOp, reps []mpi.WireReply, out *connLoad) ([]mpi.WireReply, error) {
	t0 := time.Now()
	reps, err := s.send(conn, ops, reps)
	rtt := time.Since(t0)
	if err != nil {
		return reps, err
	}
	out.rtt.add(float64(rtt.Nanoseconds()))
	out.frames++
	out.ops += len(ops)
	return reps, nil
}

// send is one wire frame: session connections go through the resilient
// client (every op sequenced, so journaled with its seq and recorded in
// the session's reply ring); plain connections send batches, and
// phases as scalar frames.
func (s *served) send(conn int, ops []mpi.WireOp, reps []mpi.WireReply) ([]mpi.WireReply, error) {
	if s.w.session {
		return s.sessions[conn].Exchange(ops, reps)
	}
	cl := s.clients[conn]
	if len(ops) == 1 && ops[0].Kind == mpi.WirePhase {
		return append(reps[:0], mpi.WireReply{Kind: mpi.WirePhase, Status: mpi.WireOK}), cl.Phase(ops[0].DurationNS)
	}
	return cl.DoBatch(ops, reps)
}

// segStats are a segment's end-to-end figures, each over the whole
// measured segment: raw host figures, and the same in reference-host
// units (see calib.go).
type segStats struct {
	pairs, frames int
	opsPerFrame   float64
	allocsPerPair float64

	pairsPerS, cpuUSPerPair float64 // raw
	meanRTTUS, p50US        float64
	tailUS, tailQ           float64
	deciles                 [9]float64

	// The same in reference-host units, at the run's host scale.
	refPairsPerS    float64
	refCPUUSPerPair float64
	refMeanRTTUS    float64
	refTailUS       float64
}

func (r segResult) stats(scale float64) segStats {
	st := segStats{pairs: r.pairs, frames: r.frames}
	if r.pairs == 0 || r.frames == 0 {
		return st
	}
	pairs := float64(r.pairs)
	st.opsPerFrame = float64(r.ops) / float64(r.frames)
	st.allocsPerPair = float64(r.mallocs) / pairs
	st.pairsPerS = pairs / r.wall.Seconds()
	st.cpuUSPerPair = r.cpu.Seconds() * 1e6 / pairs
	st.meanRTTUS = r.rtt.mean() / 1e3
	st.p50US = r.rtt.quantile(0.5) / 1e3
	st.tailQ = tailQuantile(r.frames)
	st.tailUS = r.rtt.quantile(st.tailQ) / 1e3
	for d := range st.deciles {
		st.deciles[d] = r.rtt.quantile(float64(d+1)/10) / 1e3
	}
	st.refPairsPerS = st.pairsPerS / scale
	st.refCPUUSPerPair = st.cpuUSPerPair * scale
	st.refMeanRTTUS = st.meanRTTUS * scale
	st.refTailUS = st.tailUS * scale
	return st
}

// adminGet fetches one admin-plane path.
func (s *served) adminGet(path string) ([]byte, error) {
	resp, err := http.Get("http://" + s.srv.AdminAddr() + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// scrape fetches /metrics and sums every sample of each metric name
// across its labels.
func (s *served) scrape() (map[string]float64, error) {
	body, err := s.adminGet("/metrics")
	if err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		sums[name] += v
	}
	return sums, sc.Err()
}

// status fetches /status.
func (s *served) status() (daemon.StatusReport, error) {
	var st daemon.StatusReport
	body, err := s.adminGet("/status")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// checkDrained is the post-run output check: the queues hold exactly
// the standing backlog, the engines charged exactly the cycles the
// replies reported, nothing was refused at ingress or for credit, and
// no session had to reconnect or re-send.
func (s *served) checkDrained(replyCycles uint64) []error {
	var errs []error
	for i, rc := range s.sessions {
		if rc.Reconnects != 0 || rc.Resent != 0 {
			errs = append(errs, fmt.Errorf("session %d: %d reconnects, %d ops re-sent", i, rc.Reconnects, rc.Resent))
		}
	}
	cl, err := daemon.Dial(s.srv.Addr())
	if err != nil {
		return append(errs, fmt.Errorf("drain check: %w", err))
	}
	prq, umq, err := cl.QueueLens()
	cl.Close()
	if err != nil {
		return append(errs, fmt.Errorf("drain check: %w", err))
	}
	if prq != s.w.standingPRQ() || umq != 0 {
		errs = append(errs, fmt.Errorf("drain check: PRQ %d UMQ %d, want PRQ %d UMQ 0", prq, umq, s.w.standingPRQ()))
	}
	st, err := s.status()
	if err != nil {
		return append(errs, fmt.Errorf("status: %w", err))
	}
	if st.Engine.Cycles != replyCycles {
		errs = append(errs, fmt.Errorf("cycle conservation: replies summed %d cycles, /status engine %d", replyCycles, st.Engine.Cycles))
	}
	if st.Nacks != 0 || st.CreditStalls != 0 || st.Engine.Refused != 0 {
		errs = append(errs, fmt.Errorf("refusals: nacks %d credit stalls %d engine refused %d", st.Nacks, st.CreditStalls, st.Engine.Refused))
	}
	return errs
}
