package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wspeer/internal/telemetry"
)

// caller is one closed-loop client: op performs one operation and reports
// a wrong output or a failed call as an error; post, when set, runs after
// each op outside its timed span (the traced run uses it to fold the op's
// stamps into per-layer samples).
type caller struct {
	op   func() error
	post func()
}

// phase is what one measured stretch of closed-loop traffic produced.
type phase struct {
	attempted int64
	failed    int64
	// samples is how many op latencies were recorded.
	samples int
	// windows splits the phase into equal stretches of wall time (see
	// windowStats).
	windows []window
	// mallocs and allocBytes are whole-process deltas over the phase.
	mallocs, allocBytes uint64
	// heapLive is HeapAlloc after a forced GC at the end of the phase,
	// less the harness's own latency buffers.
	heapLive uint64
	gcCycles uint64
	// gcCPU and totalCPU are the runtime's own CPU accounting (seconds).
	gcCPU, totalCPU float64
	counters        map[string]int64
}

// window is one stretch of a phase: the latencies of the ops that ended in
// it (sorted), its length and the process CPU time it used.
type window struct {
	lat []int64
	dur time.Duration
	cpu time.Duration
}

// phaseWindows is how many stretches a phase is cut into. The reported
// rates and percentiles are medians over stretches, so a burst of noise
// from outside the process moves one stretch rather than the result.
const phaseWindows = 20

// runPhase drives every caller in a closed loop for d and measures the
// process around it. Each caller records each op's latency and end time
// into buffers allocated before the clock starts and sized from rate
// (expected ops per second per caller), so recording never allocates;
// samples past the buffers' end are counted but not kept.
func runPhase(callers []caller, d time.Duration, rate float64) phase {
	capacity := int(rate*d.Seconds()*2) + 1024
	if capacity > 1<<22 {
		capacity = 1 << 22
	}
	lats := make([][]int64, len(callers))
	ends := make([][]int64, len(callers))
	for i := range lats {
		lats[i] = make([]int64, 0, capacity)
		ends[i] = make([]int64, 0, capacity)
	}
	attempted := make([]int64, len(callers))
	failed := make([]int64, len(callers))
	cpuAt := make([]time.Duration, phaseWindows+1)

	// The process readings are taken innermost, so their own allocations
	// fall outside the Mallocs window.
	before := telemetry.Default().Snapshot().Counters
	runtime.GC()
	rm0 := readRuntimeMetrics()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpuAt[0] = rusage()

	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i := range callers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := callers[i]
			lat, end := lats[i], ends[i]
			var n, bad int64
			for !stop.Load() {
				t0 := time.Now()
				err := c.op()
				t1 := time.Now()
				if len(lat) < cap(lat) {
					lat = append(lat, int64(t1.Sub(t0)))
					end = append(end, int64(t1.Sub(start)))
				}
				n++
				if err != nil {
					bad++
				}
				if c.post != nil {
					c.post()
				}
			}
			lats[i], ends[i], attempted[i], failed[i] = lat, end, n, bad
		}(i)
	}
	step := d / phaseWindows
	for k := 1; k <= phaseWindows; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * step)))
		cpuAt[k] = rusage()
	}
	stop.Store(true)
	wg.Wait()

	runtime.ReadMemStats(&ms1)
	rm1 := readRuntimeMetrics()
	after := telemetry.Default().Snapshot().Counters

	p := phase{
		mallocs:    ms1.Mallocs - ms0.Mallocs,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		gcCycles:   rm1.gcCycles - rm0.gcCycles,
		gcCPU:      rm1.gcCPU - rm0.gcCPU,
		totalCPU:   rm1.totalCPU - rm0.totalCPU,
		counters:   make(map[string]int64, len(after)),
		windows:    make([]window, phaseWindows),
	}
	for k := range p.windows {
		p.windows[k].dur = step
		p.windows[k].cpu = cpuAt[k+1] - cpuAt[k]
	}
	for k, v := range after {
		p.counters[k] = v - before[k]
	}
	var bufBytes uint64
	for i := range lats {
		p.attempted += attempted[i]
		p.failed += failed[i]
		bufBytes += uint64(cap(lats[i])+cap(ends[i])) * 8
		p.samples += len(lats[i])
	}
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	if ms2.HeapAlloc > bufBytes {
		p.heapLive = ms2.HeapAlloc - bufBytes
	}
	for i := range lats {
		for j, e := range ends[i] {
			// Ops still in flight when the last stretch closed count in it.
			k := min(int(e/int64(step)), phaseWindows-1)
			p.windows[k].lat = append(p.windows[k].lat, lats[i][j])
		}
	}
	for k := range p.windows {
		sortInt64s(p.windows[k].lat)
	}
	return p
}

func sortInt64s(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// windowStats are a phase's rate, latency and CPU figures, each the
// median over its stretches. The p99 is taken over groups of adjacent
// stretches, each group holding at least minGroup samples (on average,
// 20 beyond its p99, so stretches of uneven size still leave 10); beyond
// is the smallest count beyond any group's p99.
type windowStats struct {
	opsPerS, p50us, p99us, cpuUsPerOp float64
	p99Groups, beyond                 int
}

const (
	minTail  = 10
	minGroup = 2000
)

func (p *phase) windowStats() windowStats {
	var ops, p50, cpu []float64
	for _, w := range p.windows {
		n := len(w.lat)
		if n == 0 {
			continue
		}
		ops = append(ops, float64(n)/w.dur.Seconds())
		v, _ := percentile(w.lat, 0.50)
		p50 = append(p50, float64(v)/1e3)
		cpu = append(cpu, float64(w.cpu)/1e3/float64(n))
	}
	st := windowStats{opsPerS: median(ops), p50us: median(p50), cpuUsPerOp: median(cpu)}
	groups := min(p.samples/minGroup, len(p.windows))
	if groups < 1 {
		groups = 1
	}
	var p99 []float64
	st.beyond = p.samples
	for g := 0; g < groups; g++ {
		var merged []int64
		for k := g * len(p.windows) / groups; k < (g+1)*len(p.windows)/groups; k++ {
			merged = append(merged, p.windows[k].lat...)
		}
		sortInt64s(merged)
		v, beyond := percentile(merged, 0.99)
		p99 = append(p99, float64(v)/1e3)
		st.beyond = min(st.beyond, beyond)
	}
	st.p99us, st.p99Groups = median(p99), groups
	return st
}

// warmUp runs the callers untimed until d has passed and at least minOps
// operations completed, and returns the observed ops per second per
// caller (used to size the measured phase's sample buffers).
func warmUp(callers []caller, d time.Duration, minOps int64) float64 {
	var ops atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i := range callers {
		wg.Add(1)
		go func(c caller) {
			defer wg.Done()
			for !stop.Load() {
				_ = c.op()
				if c.post != nil {
					c.post()
				}
				ops.Add(1)
			}
		}(callers[i])
	}
	for time.Since(start) < d || ops.Load() < minOps {
		time.Sleep(10 * time.Millisecond)
		if time.Since(start) > 30*time.Second {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	return float64(ops.Load()) / time.Since(start).Seconds() / float64(len(callers))
}

// percentile returns the nearest-rank q-quantile of sorted samples (the
// smallest sample with at least q of all samples at or below it) and how
// many samples lie strictly beyond that rank.
func percentile(sorted []int64, q float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// median of unsorted float samples (the mean of the middle pair for even
// counts); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// rusage returns the process's user+system CPU time so far.
func rusage() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeMetrics struct {
	gcCycles        uint64
	gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntimeMetrics() runtimeMetrics {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r runtimeMetrics
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[2].Value.Float64()
	}
	return r
}
