package main

import (
	"math"
	"math/bits"
	"sort"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the middle two for an
// even count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile is 0.99, or the highest lower quantile that still
// leaves at least 10 of n samples beyond it.
func tailQuantile(n int) float64 {
	q := 0.99
	if float64(n)*(1-q) < 10 {
		q = 1 - 10/float64(n)
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// histSub is the buckets per power of two of a latHist: a value is
// kept to within 1/128 of itself.
const histSub = 64

// latHist is a log-linear histogram of durations in ns. Its size is
// fixed, so recording a frame costs no memory however many frames a
// run serves.
type latHist struct {
	counts [64 * histSub]uint64
	n      uint64
	sum    float64
}

// histBucket is v's bucket: values below 2*histSub are exact, larger
// ones keep their top 7 bits.
func histBucket(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	e := bits.Len64(v) - 7
	return e*histSub + int(v>>e)
}

// histValue is the middle of bucket i.
func histValue(i int) float64 {
	if i < 2*histSub {
		return float64(i)
	}
	e := i/histSub - 1
	m := uint64(i - e*histSub)
	return float64(m<<e) + float64(uint64(1)<<e)/2
}

func (h *latHist) add(ns float64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
	h.sum += ns
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *latHist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile is the nearest-rank q-quantile, to within a bucket.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		if cum += c; cum >= rank {
			return histValue(i)
		}
	}
	return histValue(len(h.counts) - 1)
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPUTime is the calling OS thread's user+sys CPU time.
func threadCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
