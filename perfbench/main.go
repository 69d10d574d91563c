// Command perfbench is the repository's serving benchmark: it starts
// the daemon in process, drives one seeded workload closed loop over
// loopback, checks every output, and prints each metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run also records spans around each layer call and reports the
// per-layer metrics instead (README.md maps each to the end-to-end
// metric it should move).
//
//	go run . --workload batch-short --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"spco/internal/ctrace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// A run sets the daemon up setupWarm+setups times, each after a GC and
// a calibration: the first setupWarm pay the process's one-time costs
// (first listeners, first journal files) and are not counted, setup_s
// is the median of the rest, scaled by the host scale of the set-up
// phase's own calibrations, and the last daemon serves the load.
const (
	setupWarm = 3
	setups    = 25
)

type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pairs_per_s", "1/s"},
	{"rtt_mean_us", "us"},
	{"rtt_p99_us", "us"},
	{"cpu_us_per_pair", "us"},
	{"allocs_per_pair", "count"},
	{"max_rss_mb", "MiB"},
	{"model_cycles_per_pair", "cycles"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: batch-short, backlog-deep or scalar-journal")
		seed    = fs.Uint64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", 10, "measured run length")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		pairs   = fs.Int("pairs", 0, "run this many pairs per connection per segment instead of --seconds")
		scratch = fs.String("scratch", ".bench_build", "directory for journals and the trace export")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && (*traced < 0 || *traced > 1) {
		err = fmt.Errorf("--trace %d (want 0 or 1)", *traced)
	}
	if err == nil && *pairs == 0 && !(*seconds > 0) {
		err = fmt.Errorf("--seconds %v (want > 0)", *seconds)
	}
	if err == nil {
		err = os.MkdirAll(*scratch, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, pairs: *pairs, traced: *traced == 1, scratch: *scratch, out: stdout}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one invocation.
type bench struct {
	w       workload
	seed    uint64
	seconds float64
	pairs   int
	traced  bool
	scratch string
	out     io.Writer

	metrics map[string]float64
	units   map[string]string
	order   []string
	errs    []error
}

func (b *bench) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.errs = append(b.errs, fmt.Errorf("metric %s is %v", name, v))
		v = 0
	}
	if _, ok := b.metrics[name]; !ok {
		b.order = append(b.order, name)
	}
	b.metrics[name] = v
	b.units[name] = unit
}

func (b *bench) run() (resultOut, error) {
	b.metrics, b.units = map[string]float64{}, map[string]string{}
	b.recordConfig()
	cal, err := newCalibrator(runtime.GOMAXPROCS(0))
	if err != nil {
		return resultOut{}, err
	}
	calOpen := true
	defer func() {
		if calOpen {
			cal.close()
		}
	}()

	var setupS []float64
	var s *served
	for r := 0; r < setupWarm+setups; r++ {
		runtime.GC()
		if err := cal.measure(); err != nil {
			return resultOut{}, err
		}
		t0 := time.Now()
		if s, err = startServed(b.w, cal, b.scratch); err != nil {
			return resultOut{}, err
		}
		if r >= setupWarm {
			setupS = append(setupS, time.Since(t0).Seconds())
		}
		if r < setupWarm+setups-1 {
			if err := s.stop(); err != nil {
				return resultOut{}, fmt.Errorf("teardown: %w", err)
			}
		}
	}
	setupScale, setupChase, setupLoop := cal.hostScale()
	cal.readings = cal.readings[:0]

	gens := make([]*pairGen, b.w.conns)
	for c := range gens {
		gens[c] = newPairGen(b.w, b.seed, c)
	}
	var segs []segResult
	runSeg := func(p segPlan) segResult {
		p.maxPairs = b.pairs
		r := s.runSegment(gens, p)
		segs = append(segs, r)
		return r
	}
	// The traced run's /metrics deltas span the warm-up, which times a
	// scrape every 200ms under load, and the measured segment.
	var before, after map[string]float64
	var scraped time.Time
	scrape := func() map[string]float64 {
		m, err := s.scrape()
		if err != nil {
			b.errs = append(b.errs, fmt.Errorf("scrape: %w", err))
		}
		return m
	}
	if b.traced {
		before, scraped = scrape(), time.Now()
	}
	var scrapes []float64
	if b.pairs == 0 || b.traced {
		// Warm-up: node pools, cache model, Go heap. Audited, not timed.
		warm := runSeg(segPlan{seconds: math.Min(1, b.seconds/4), scrape: b.traced})
		scrapes = warm.scrapes
	}

	// The measured segment starts from a collected heap, and its host
	// scale comes from its own calibrations.
	runtime.GC()
	cal.readings = cal.readings[:0]
	measured := runSeg(segPlan{seconds: b.seconds})
	var scrapeSecs float64
	if b.traced {
		after = scrape()
		scrapeSecs = time.Since(scraped).Seconds()
	}
	rss := maxRSSMB()

	attempted, failed := 0, 0
	replyCycles := s.setupCycles
	var pairCycles uint64
	for _, r := range segs {
		attempted += r.pairs
		failed += r.failed
		pairCycles += r.cycles
		b.errs = append(b.errs, r.errs...)
		if r.failed > 0 {
			b.errs = append(b.errs, fmt.Errorf("%d pairs failed the per-pair audit", r.failed))
		}
	}
	replyCycles += pairCycles
	checks := s.checkDrained(replyCycles)
	b.errs = append(b.errs, checks...)
	failed += len(checks)
	if err := s.stop(); err != nil {
		b.errs = append(b.errs, fmt.Errorf("teardown: %w", err))
	}
	calOpen = false
	if err := cal.close(); err != nil {
		b.errs = append(b.errs, fmt.Errorf("calibration: %w", err))
	}
	if attempted == 0 {
		return resultOut{}, errors.New("no pairs completed")
	}
	fmt.Fprintf(b.out, "failed_frac %.6g (%d of %d pairs)\n", float64(failed)/float64(attempted), failed, attempted)

	scale, chaseCPU, loopWall := cal.hostScale()
	st := measured.stats(scale)
	fmt.Fprintf(b.out, "host scale %.4g: medians chase CPU %v, loopback %v over %d calibrations\n",
		scale, chaseCPU, loopWall, len(cal.readings))
	fmt.Fprintf(b.out, "setup_s raw samples %.4g\n", setupS)
	fmt.Fprintf(b.out, "set-up host scale %.4g: medians chase CPU %v, loopback %v\n", setupScale, setupChase, setupLoop)
	fmt.Fprintf(b.out, "measured: %d pairs, %d frames (%.4g ops/frame) in %d slices, %.4g s of load\n",
		st.pairs, st.frames, st.opsPerFrame, measured.slices, measured.wall.Seconds())
	fmt.Fprintf(b.out, "raw host figures: %.6g pairs/s, %.6g us CPU/pair, mean rtt %.6g us, rtt p50 %.4g us, p%.4g %.4g us\n",
		st.pairsPerS, st.cpuUSPerPair, st.meanRTTUS, st.p50US, 100*st.tailQ, st.tailUS)
	fmt.Fprintf(b.out, "raw rtt deciles %.4g us\n", st.deciles)
	if !b.traced {
		b.set("setup_s", "s", median(setupS)*setupScale)
		b.set("pairs_per_s", "1/s", st.refPairsPerS)
		b.set("rtt_mean_us", "us", st.refMeanRTTUS)
		b.set("rtt_p99_us", "us", st.refTailUS)
		b.set("cpu_us_per_pair", "us", st.refCPUUSPerPair)
		b.set("allocs_per_pair", "count", st.allocsPerPair)
		b.set("max_rss_mb", "MiB", rss)
		b.set("model_cycles_per_pair", "cycles", float64(pairCycles)/float64(attempted))
		b.setOrder(endToEnd)
	} else {
		// Per-layer figures are raw host times, like the layer timings
		// they are compared with.
		b.set("e2e.cpu_us_per_pair", "us", st.cpuUSPerPair)
		if before != nil && after != nil {
			b.set("daemon.lock_wait_s_per_s", "s/s",
				(after["spco_shard_lock_wait_seconds_total"]-before["spco_shard_lock_wait_seconds_total"])/scrapeSecs)
			b.set("daemon.frames_per_pair", "count",
				(after["spco_daemon_frames_total"]-before["spco_daemon_frames_total"])/float64(attempted))
		}
		b.set("telemetry.scrape_ms", "ms", median(scrapes))
		offPairs := b.w.offlinePairs
		if b.pairs > 0 && b.pairs < offPairs {
			offPairs = b.pairs
		}
		rec := ctrace.New(ctrace.Options{KeepAll: true, Capacity: 1 << 15})
		lm := newLayerMeter(b, rec, offPairs)
		lm.measure(st)
		b.setOrder(perLayer)
		b.exportTrace(rec)
	}

	for _, e := range b.errs {
		fmt.Fprintln(b.out, "check failed:", e)
	}
	res := resultOut{Correct: len(b.errs) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	if !res.Correct && res.Failed == 0 {
		res.Failed = len(b.errs)
	}
	for _, n := range b.order {
		fmt.Fprintf(b.out, "metric %-40s %16.6g %s\n", n, b.metrics[n], b.units[n])
		res.Metrics[n] = metricOut{Value: b.metrics[n], Unit: b.units[n]}
	}
	return res, nil
}

// setOrder puts the metrics in defs order and reports any missing.
func (b *bench) setOrder(defs []metricDef) {
	b.order = b.order[:0]
	for _, d := range defs {
		if _, ok := b.metrics[d.name]; !ok {
			b.errs = append(b.errs, fmt.Errorf("metric %s was not measured", d.name))
			b.set(d.name, d.unit, 0)
			continue
		}
		b.order = append(b.order, d.name)
	}
}

// exportTrace writes the recorded spans as Chrome trace JSON and
// validates the file with the same checker `spco-trace check` runs.
func (b *bench) exportTrace(rec *ctrace.Recorder) {
	path := filepath.Join(b.scratch, fmt.Sprintf("perfbench-trace-%s.json", b.w.name))
	f, err := os.Create(path)
	if err != nil {
		b.errs = append(b.errs, err)
		return
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		b.errs = append(b.errs, fmt.Errorf("trace export: %w", err))
		return
	}
	if err := f.Close(); err != nil {
		b.errs = append(b.errs, fmt.Errorf("trace export: %w", err))
		return
	}
	rf, err := os.Open(path)
	if err != nil {
		b.errs = append(b.errs, err)
		return
	}
	defer rf.Close()
	rep, err := ctrace.CheckChromeJSON(rf)
	if err != nil {
		b.errs = append(b.errs, fmt.Errorf("trace check %s: %w", path, err))
		return
	}
	fmt.Fprintf(b.out, "trace %s: %d traces, %d spans (checked)\n", path, rep.Traces, rep.Spans)
}

// recordConfig prints the run's configuration as one JSON line.
func (b *bench) recordConfig() {
	w := b.w
	ecfg := w.engineConfig()
	cfg := map[string]any{
		"workload":    w.name,
		"why":         w.why,
		"seed":        b.seed,
		"seconds":     b.seconds,
		"pairs":       b.pairs,
		"trace":       b.traced,
		"go":          runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"cpu_model":   cpuModel(),
		"shards":      w.shards,
		"conns":       w.conns,
		"batch":       w.batch,
		"session":     w.session,
		"traced_ops":  w.traced,
		"backlog":     w.backlog,
		"hot_cache":   w.hot,
		"phase_every": w.phaseEvery,
		"phase_ns":    w.phaseNS,
		"engine": fmt.Sprintf("%v k=%d pool=%v profile=%s residency_interval=%d",
			ecfg.Kind, ecfg.EntriesPerNode, ecfg.Pool, ecfg.Profile.Name, ecfg.ResidencyInterval),
		"pmu":             true,
		"telemetry":       true,
		"flight_recorder": "default",
		"transport":       "tcp loopback, closed loop",
		"journal":         w.journal,
		"setups":          setups,
		"setup_warm":      setupWarm,
		"slice_ms":        sliceDur.Milliseconds(),
		"calibration": fmt.Sprintf("chase %d workers x %d steps over %d KiB (reference %v CPU); loopback %d trips (reference %v)",
			runtime.GOMAXPROCS(0), calSteps, calWords*4/1024, refChaseCPU, calLoopTrips, refLoopWall),
	}
	if w.journal {
		fsType := fsTypeOf(b.scratch)
		cfg["journal_fs"] = fsType
		cfg["journal_tmpfs"] = fsType == "tmpfs"
	}
	line, _ := json.Marshal(cfg) // a map of plain values always marshals
	fmt.Fprintln(b.out, "config", string(line))
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsTypeOf names the filesystem holding dir, from its statfs magic.
func fsTypeOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
