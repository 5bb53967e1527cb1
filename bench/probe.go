package main

import (
	"math"
	"sort"
	"time"
)

// The host this benchmark was tuned on shares its cores with other
// tenants. The same fixed computation runs at full speed for a while and
// then up to twice as slow, from one half second to the next, and some
// runs see far more slow periods than others. Every timed end-to-end
// metric is therefore scaled to a reference host speed. Between
// requests the harness runs a fixed reference kernel — a dense
// elimination that calls nothing in the program — and measures it. A
// request's time at reference speed is its measured time times
// refKernel over the mean kernel time measured within speedWindow of
// the request. A program change moves the request times and not the
// kernel's, so it moves the scaled times by the same factor.
const (
	// speedShare is the share of the timed window the kernel runs.
	speedShare = 0.05
	// speedWindow is how long before a request's start and after its end
	// kernel samples still describe the host's speed during it.
	speedWindow = 250 * time.Millisecond
	// refKernel is the kernel's time at the reference speed, about its
	// time on the quiet host: a time measured at that speed counts as is.
	refKernel = 160 * time.Microsecond
	// rssEvery is how often the probe reads the resident set.
	rssEvery = 100 * time.Millisecond
)

// kernelSink keeps the kernel's result alive.
var kernelSink float64

// sample is one timed call: when it started and how long it took.
type sample struct {
	inst  int // the instance a request visited
	start time.Time
	took  time.Duration
}

// probe samples the host between requests during a window: its speed,
// with the reference kernel, and the process's resident set. It is used
// from one goroutine.
type probe struct {
	start   time.Time
	spent   time.Duration
	at      []time.Time // kernel sample starts, ascending
	took    []time.Duration
	tab     []float64
	lastRSS time.Time
	rss     []float64
}

// newProbe warms the kernel up and starts the window.
func newProbe() *probe {
	p := &probe{tab: make([]float64, kernelRows*kernelCols)}
	for i := 0; i < 20; i++ {
		p.kernel()
	}
	p.start = time.Now()
	return p
}

const kernelRows, kernelCols = 48, 96

// kernel performs 60 pivots of a dense elimination on a fixed tableau.
// It allocates nothing.
func (p *probe) kernel() {
	a := p.tab
	for i := range a {
		a[i] = math.Sin(float64(i)) + 2
	}
	for r := 0; r < 60; r++ {
		pr, c := r%kernelRows, (7*r)%kernelCols
		prow := a[pr*kernelCols : (pr+1)*kernelCols]
		for i := 0; i < kernelRows; i++ {
			if i == pr {
				continue
			}
			row := a[i*kernelCols : (i+1)*kernelCols]
			f := 1e-3 * row[c] / prow[c]
			for j := range row {
				row[j] -= f * prow[j]
			}
		}
	}
	kernelSink += a[17]
}

// between runs the kernel until it has taken speedShare of the window so
// far, and reads the resident set if rssEvery has passed since the last
// reading. Callers run it between requests.
func (p *probe) between() {
	if time.Since(p.lastRSS) >= rssEvery {
		p.lastRSS = time.Now()
		p.rss = append(p.rss, statusMB("VmRSS:"))
	}
	for p.spent < time.Duration(speedShare*float64(time.Since(p.start))) {
		t0 := time.Now()
		p.kernel()
		d := time.Since(t0)
		p.spent += d
		p.at = append(p.at, t0)
		p.took = append(p.took, d)
	}
}

// slowdown is the mean kernel time within speedWindow of [from, to] over
// refKernel, or over the whole window when no sample falls there.
func (p *probe) slowdown(from, to time.Time) float64 {
	lo := sort.Search(len(p.at), func(i int) bool { return !p.at[i].Before(from.Add(-speedWindow)) })
	hi := sort.Search(len(p.at), func(i int) bool { return p.at[i].After(to.Add(speedWindow)) })
	if lo >= hi {
		lo, hi = 0, len(p.at)
	}
	if lo >= hi {
		return 1
	}
	var sum time.Duration
	for _, d := range p.took[lo:hi] {
		sum += d
	}
	return float64(sum) / float64(hi-lo) / float64(refKernel)
}

// ms is x's time in milliseconds at the reference speed.
func (p *probe) ms(x sample) float64 {
	return ms(x.took) / p.slowdown(x.start, x.start.Add(x.took))
}

// medianSeconds is the median of xs's times at the reference speed, in
// seconds.
func (p *probe) medianSeconds(xs []sample) float64 {
	secs := make([]float64, len(xs))
	for i, x := range xs {
		secs[i] = p.ms(x) / 1000
	}
	return median(secs)
}

// hostSlowdown is the mean kernel time over the window over refKernel.
func (p *probe) hostSlowdown() float64 {
	if len(p.at) == 0 {
		return 1
	}
	return p.slowdown(p.at[0], p.at[len(p.at)-1])
}

// rssMB is the median resident set read during the window.
func (p *probe) rssMB() float64 {
	return median(append([]float64(nil), p.rss...))
}
