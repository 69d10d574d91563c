package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"time"
)

// The reference host shares its CPUs with other tenants: how fast it
// runs the same code changes by a fifth or more from one minute to the
// next, and sets of runs taken 20 minutes apart differed by up to 30%.
// A run is far shorter than those phases, so raw host-time figures of
// runs taken minutes apart disagree by more than any useful bound.
//
// A run therefore calibrates the host as it goes: before every set-up
// and every load slice, with the load parked, it times two fixed
// pieces of benchmark-local work.
//
//   - chase: a pointer chase through a seeded 1 MiB permutation with
//     integer mixing, on one goroutine per CPU. The CPU time of the
//     chasing threads alone (not the process's, which would count any
//     garbage collection the load left running) tracks how fast the
//     host runs instructions.
//   - loopback: ping-pong of batch-sized frames between two goroutines
//     over TCP loopback, the syscalls and wake-ups a served frame waits
//     on.
//
// The run's host scale is the geometric mean of the two reference
// times over the run's medians. Host-time metrics are reported in
// reference-host units: times multiplied by the scale, rates divided
// by it. Over 25 interleaved runs per workload, this one scale cut the
// quartile spread of throughput and CPU per pair from 13–24% to 3–7%
// on every workload, more than either part alone. The disk is not
// calibrated: a kernel of journal-sized appends and fsyncs varied by a
// fifth between runs whose served tails did not. The calibration calls
// no program code, so a change to the program moves the scaled figures
// exactly as it moves the raw ones.

const (
	calWords     = 1 << 18 // chase buffer per worker, in uint32s (1 MiB)
	calSteps     = 1 << 21 // chase steps per worker per reading
	calLoopTrips = 600     // loopback round trips per reading
	calReqBytes  = 64 * 51 // a 64-op batch frame
	calRepBytes  = 64 * 13 // its replies

	// Median calibration times on the reference host: 2 vCPUs of an
	// "Intel(R) Xeon(R) Processor" VM, go1.24.0, one chase worker per
	// CPU.
	refChaseCPU = 40 * time.Millisecond
	refLoopWall = 6 * time.Millisecond
)

// calibrator owns the chase buffers, one per worker, and the loopback
// pair.
type calibrator struct {
	bufs [][]uint32
	sink uint64

	ln     net.Listener
	cli    net.Conn
	echoed chan error
	req    []byte
	rep    []byte

	readings []calReading
}

// calReading is one calibration.
type calReading struct {
	chaseCPU, loopWall time.Duration
}

func newCalibrator(workers int) (*calibrator, error) {
	c := &calibrator{
		bufs:   make([][]uint32, workers),
		echoed: make(chan error, 1),
		req:    make([]byte, calReqBytes),
		rep:    make([]byte, calRepBytes),
	}
	for w := range c.bufs {
		c.bufs[w] = permutation(calWords, uint64(w)+1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calibration listener: %w", err)
	}
	c.ln = ln
	go c.echo()
	if c.cli, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-c.echoed
		return nil, fmt.Errorf("calibration dial: %w", err)
	}
	return c, nil
}

// echo answers every request frame on the accepted connection with a
// reply frame until the client closes it.
func (c *calibrator) echo() {
	conn, err := c.ln.Accept()
	if err != nil {
		c.echoed <- err
		return
	}
	defer conn.Close()
	req, rep := make([]byte, calReqBytes), make([]byte, calRepBytes)
	for {
		if _, err := io.ReadFull(conn, req); err != nil {
			c.echoed <- nil
			return
		}
		if _, err := conn.Write(rep); err != nil {
			c.echoed <- err
			return
		}
	}
}

// close stops the echo goroutine and waits for it.
func (c *calibrator) close() error {
	c.cli.Close()
	err := <-c.echoed
	c.ln.Close()
	return err
}

// permutation is a single random cycle through n slots (Sattolo's
// algorithm), so a chase visits every slot before it repeats.
func permutation(n int, seed uint64) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	x := seed*0x9E3779B97F4A7C15 | 1
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// chase walks steps links of buf, mixing each index into a hash.
func chase(buf []uint32, steps int) uint64 {
	var i uint32
	h := uint64(0xCBF29CE484222325)
	for s := 0; s < steps; s++ {
		i = buf[i]
		h ^= uint64(i)
		h *= 0x100000001B3
		h ^= h >> 29
	}
	return h
}

// measure takes one reading and keeps it.
func (c *calibrator) measure() error {
	var wg sync.WaitGroup
	hs := make([]uint64, len(c.bufs))
	cpus := make([]time.Duration, len(c.bufs))
	for w := range c.bufs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPUTime()
			hs[w] = chase(c.bufs[w], calSteps)
			cpus[w] = threadCPUTime() - t0
		}(w)
	}
	wg.Wait()
	var r calReading
	for w, h := range hs {
		c.sink ^= h
		r.chaseCPU += cpus[w]
	}

	t0 := time.Now()
	for i := 0; i < calLoopTrips; i++ {
		if _, err := c.cli.Write(c.req); err != nil {
			return fmt.Errorf("calibration loopback: %w", err)
		}
		if _, err := io.ReadFull(c.cli, c.rep); err != nil {
			return fmt.Errorf("calibration loopback: %w", err)
		}
	}
	r.loopWall = time.Since(t0)
	c.readings = append(c.readings, r)
	return nil
}

// hostScale is the run's conversion from host to reference-host time
// (see above), with the medians it came from.
func (c *calibrator) hostScale() (scale float64, chaseCPU, loopWall time.Duration) {
	var cc, lw []float64
	for _, r := range c.readings {
		cc = append(cc, float64(r.chaseCPU))
		lw = append(lw, float64(r.loopWall))
	}
	mc, ml := median(cc), median(lw)
	return math.Sqrt(float64(refChaseCPU) / mc * float64(refLoopWall) / ml), time.Duration(mc), time.Duration(ml)
}
