package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// deriveSeed maps (seed, stream) to a positive, nonzero int64 with the
// SplitMix64 finalizer, so every draw of a run follows from -seed.
func deriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) | 1
}

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// repeatSetup runs setup n times and keeps the last instance, tearing
// down the others; it returns the set-up timings. Set-up is repeated so
// that its time is a median too, and so work moved into set-up shows in
// setup_s.
func repeatSetup[T any](hc *hostClock, n int, setup func() (T, error), teardown func(T)) (T, []timing, error) {
	var last T
	var times []timing
	for i := 0; i < n; i++ {
		var st T
		var err error
		times = append(times, hc.time(func() { st, err = setup() }))
		if err != nil {
			return last, nil, err
		}
		if i < n-1 {
			teardown(st)
		}
		last = st
	}
	return last, times, nil
}

// cpuSeconds is the process's user and system CPU time.
func cpuSeconds() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return float64(ru.Utime.Nano()) / 1e9, float64(ru.Stime.Nano()) / 1e9
}

// hostTicks reads the machine-wide CPU tick counters (total and steal)
// from /proc/stat, to report how much CPU the hypervisor withheld.
func hostTicks() (total, steal float64) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(buf, []byte("\n"))
	f := bytes.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(string(f[i]), 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// meter records the process CPU time and the host's steal ticks over a
// timed window, printed beside the result so a noisy neighbour shows.
type meter struct{ user, sys, total, steal float64 }

func startMeter() meter {
	total, steal := hostTicks()
	user, sys := cpuSeconds()
	return meter{user, sys, total, steal}
}

func (m meter) report(w io.Writer, ops int, window float64) {
	total, steal := hostTicks()
	frac := 0.0
	if total > m.total {
		frac = (steal - m.steal) / (total - m.total)
	}
	user, sys := cpuSeconds()
	n := float64(max(ops, 1))
	fmt.Fprintf(w, "window ops=%d wall_s=%.3f user_s_per_op=%.6g sys_s_per_op=%.6g host_steal=%.3f\n",
		ops, window, (user-m.user)/n, (sys-m.sys)/n, frac)
}

// hostClock times a fixed kernel that uses none of the repository's
// code — integer mixing, branches, and random reads and writes over a
// table per goroutine, on GOMAXPROCS goroutines like the ops — between
// ops, as a reading of how fast the shared host runs right now.
type hostClock struct {
	tabs    [][]uint32
	samples []float64
	// fresh reports that the last sample closed a timed stretch and
	// nothing ran since, so the next stretch opens with it.
	fresh bool
}

func newHostClock() *hostClock {
	h := &hostClock{tabs: make([][]uint32, runtime.GOMAXPROCS(0))}
	for i := range h.tabs {
		h.tabs[i] = make([]uint32, 1<<18)
	}
	return h
}

// timing is one timed stretch of work: its wall time in seconds and the
// indices of the kernel samples taken right before and right after it.
type timing struct {
	wall   float64
	lo, hi int
}

// smooth is how many neighbouring samples on each side join a
// stretch's own two in its scale factor: a single 12 ms kernel run is
// noisy, the host's speed drifts over seconds.
const smooth = 4

// scale is the factor that brings t to reference host speed: refClock
// over the median kernel time of the samples around t.
func (h *hostClock) scale(t timing) float64 {
	return refClock / median(h.samples[max(0, t.lo-smooth):min(len(h.samples), t.hi+smooth+1)])
}

// time runs fn between two kernel samples; back-to-back stretches share
// the sample between them.
func (h *hostClock) time(fn func()) timing {
	if !h.fresh {
		h.sample()
	}
	lo := len(h.samples) - 1
	t0 := time.Now()
	fn()
	wall := seconds(time.Since(t0))
	h.sample()
	h.fresh = true
	return timing{wall, lo, len(h.samples) - 1}
}

// sample runs the kernel once and records its wall time.
func (h *hostClock) sample() {
	h.fresh = false
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := range h.tabs {
		wg.Add(1)
		go func(tab []uint32, x uint32) {
			defer wg.Done()
			for i := 0; i < 1_500_000; i++ {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				j := x & (1<<18 - 1)
				if tab[j]&1 == 0 {
					tab[j] += x
				} else {
					tab[j] ^= x >> 3
				}
			}
		}(h.tabs[g], uint32(2463534242+g))
	}
	wg.Wait()
	h.samples = append(h.samples, seconds(time.Since(t0)))
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// peak-RSS mark, so the VmHWM read after the timed window covers that
// window only.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak-RSS mark: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM (the peak resident set since the last reset).
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range bytes.Split(buf, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(l, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(string(f[0]), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// tempDir makes a fresh directory under the run's scratch root.
func tempDir(o *options, pattern string) (string, error) {
	return os.MkdirTemp(o.tmp, pattern)
}

// runScratch creates the run's scratch root and returns its remover.
func runScratch(o *options) (func(), error) {
	dir, err := os.MkdirTemp(o.out, "run-"+o.workload+"-*")
	if err != nil {
		return nil, err
	}
	o.tmp = dir
	return func() { os.RemoveAll(dir) }, nil
}

func modelsPath(o *options) string { return filepath.Join(o.root, "models", "bigdata.json") }

// refClock is the host clock's kernel time on an uncontended 2-vCPU
// host of the kind the benchmark was tuned on.
const refClock = 0.0125

// tally accumulates a timed window: its stretches with the ops each
// held, and the latencies of the workload's primary op class (an
// export, a re-analysis, a corpus query) with the stretch each fell in.
type tally struct {
	ops       int
	wall      float64
	stretches []timing
	lat       []float64
	in        []int
	kind      []string
}

// add counts a timed stretch holding ops ops.
func (t *tally) add(tm timing, ops int) {
	t.ops += ops
	t.wall += tm.wall
	t.stretches = append(t.stretches, tm)
}

// primary records one primary-class latency, of the given kind of op,
// measured within the stretch added last.
func (t *tally) primary(lat float64, kind string) {
	t.lat = append(t.lat, lat)
	t.in = append(t.in, len(t.stretches)-1)
	t.kind = append(t.kind, kind)
}

// p50 is the geometric mean of the per-kind medians of lat. With one
// kind it is the median. The three corpus query ops have latencies a
// few times apart, so the pooled median sits in the gap between two of
// them and jumps with their mix; the per-kind medians do not.
func (t *tally) p50(lat []float64) float64 {
	byKind := map[string][]float64{}
	for i, l := range lat {
		byKind[t.kind[i]] = append(byKind[t.kind[i]], l)
	}
	logSum := 0.0
	for _, ls := range byKind {
		logSum += math.Log(median(ls))
	}
	return math.Exp(logSum / float64(len(byKind)))
}

// e2e assembles the end-to-end metrics every workload reports, and the
// same values as measured.
//
// Times are reported at reference host speed: each op, service-mix
// round or set-up is scaled by the host clock around it. On a shared
// host the same op takes 1.4 s in one run and 2.8 s a few minutes later,
// and the kernel's time moves with it, so the scaled times stay put
// while the raw ones cannot be compared across runs.
func e2e(hc *hostClock, setup []timing, w *tally, rssMB float64) (scaled, raw map[string]metric) {
	var setupWall, setupScaled []float64
	for _, s := range setup {
		setupWall = append(setupWall, s.wall)
		setupScaled = append(setupScaled, s.wall*hc.scale(s))
	}
	window := 0.0
	for _, s := range w.stretches {
		window += s.wall * hc.scale(s)
	}
	latScaled := make([]float64, len(w.lat))
	for i, l := range w.lat {
		latScaled[i] = l * hc.scale(w.stretches[w.in[i]])
	}
	raw = map[string]metric{
		"setup_s":       {median(setupWall), "s"},
		"ops_per_s":     {float64(w.ops) / w.wall, "1/s"},
		"peak_rss_mb":   {rssMB, "MiB"},
		"op_p50_ms":     {1000 * w.p50(w.lat), "ms"},
		"op_p90_ms":     {1000 * quantile(w.lat, 0.9), "ms"},
		"host_clock_ms": {1000 * median(hc.samples), "ms"},
	}
	scaled = map[string]metric{
		"setup_s":     {median(setupScaled), "s"},
		"ops_per_s":   {float64(w.ops) / window, "1/s"},
		"peak_rss_mb": {rssMB, "MiB"},
		"op_p50_ms":   {1000 * w.p50(latScaled), "ms"},
		"op_p90_ms":   {1000 * quantile(latScaled, 0.9), "ms"},
	}
	return scaled, raw
}
