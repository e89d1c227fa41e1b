package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// epoch anchors nowNs; time.Since reads the monotonic clock.
var epoch = time.Now()

// nowNs is the benchmark's one clock: monotonic nanoseconds since
// process start.
func nowNs() int64 { return int64(time.Since(epoch)) }

// cpuTime returns the process's user+system CPU time (getrusage). It
// counts only time the process ran, so per-operation CPU cost is less
// sensitive than wall time to a loaded host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB, less
// the host gauge's buffer, which is resident from before the first
// operation to the end of the run.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss)/1024 - float64(len(gaugeBuf)*8)/(1<<20) // Linux reports KiB
}

// rssMB returns the process's current resident set size in MiB, less
// the host gauge's buffer (see peakRSSMB).
func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return math.NaN()
	}
	return pages*float64(os.Getpagesize())/(1<<20) - float64(len(gaugeBuf)*8)/(1<<20)
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailWindows is how many consecutive windows a closed-loop run's
// latencies are split into for windowedP99.
const tailWindows = 5

// windowedP99 returns the median over tailWindows consecutive windows
// of xs of each window's 0.99-quantile: a burst of hypervisor steal
// lands in one window and moves that window's tail, not the figure.
func windowedP99(xs []float64) float64 {
	if len(xs) < tailWindows {
		return quantile(xs, 0.99)
	}
	var tails []float64
	for w := 0; w < tailWindows; w++ {
		tails = append(tails, quantile(xs[w*len(xs)/tailWindows:(w+1)*len(xs)/tailWindows], 0.99))
	}
	return median(tails)
}

// setupBatches and the per-workload batch sizes shape every set-up
// measurement: one set-up is tens of µs to a few ms, and some overlap
// a GC cycle, so single set-ups are bimodal. A batch's mean carries
// its share of GC, and the median over batches drops a batch that a
// burst of hypervisor steal lands on.
const setupBatches = 11

// setupSeconds runs op setupBatches×per times and returns the median
// over batches of the mean time per call, in seconds at the nominal
// host speed (each batch lies between two gauge readings). op(i)
// returns the time of its call i, so it can leave tear-down untimed;
// the first error stops the measurement.
func setupSeconds(per int, op func(i int) (time.Duration, error)) (float64, error) {
	var means []float64
	g0 := readScale()
	for k := 0; k < setupBatches; k++ {
		var sum time.Duration
		for i := k * per; i < (k+1)*per; i++ {
			d, err := op(i)
			if err != nil {
				return 0, err
			}
			sum += d
		}
		g := readScale()
		means = append(means, sum.Seconds()/float64(per)/g0.mid(g).wall)
		g0 = g
	}
	return median(means), nil
}

// ms converts a nanosecond duration to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// splitmix64 derives well-spread per-operation seeds from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opSeed is the seed of operation i under run seed s: never zero (zero
// selects a scenario's preset seed) and kept below 2^53 so it survives
// a JSON round trip through float-typed decoders.
func opSeed(s uint64, i int) uint64 {
	return splitmix64(s*0x100000001b3+uint64(i))%(1<<53-1) + 1
}

// hostSample is one reading of the host counters that explain noise.
type hostSample struct {
	stealTicks  int64 // /proc/stat aggregate steal, USER_HZ ticks
	cgroupOK    bool
	nrThrottled int64 // cgroup v2 cpu.stat
	throttledUS int64
}

func readHost() hostSample {
	var h hostSample
	if f, err := os.Open("/proc/stat"); err == nil {
		sc := bufio.NewScanner(f)
		if sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) > 8 && fields[0] == "cpu" {
				h.stealTicks, _ = strconv.ParseInt(fields[8], 10, 64)
			}
		}
		f.Close()
	}
	if raw, err := os.ReadFile(cgroupCPUStat()); err == nil {
		h.cgroupOK = true
		for _, line := range strings.Split(string(raw), "\n") {
			k, v, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			n, _ := strconv.ParseInt(v, 10, 64)
			switch k {
			case "nr_throttled":
				h.nrThrottled = n
			case "throttled_usec":
				h.throttledUS = n
			}
		}
	}
	return h
}

// cgroupCPUStat locates this process's cgroup v2 cpu.stat.
func cgroupCPUStat() string {
	raw, err := os.ReadFile("/proc/self/cgroup")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if path, ok := strings.CutPrefix(line, "0::"); ok {
				return "/sys/fs/cgroup" + strings.TrimSuffix(path, "/") + "/cpu.stat"
			}
		}
	}
	return "/sys/fs/cgroup/cpu.stat"
}

// envStamp is printed with every run so a noisy run can be explained
// from evidence: CPU stolen by the hypervisor, cgroup throttling, the
// scheduler width, the CPU, and the revision measured.
type envStamp struct {
	StealS            float64 `json:"steal_s"`
	CgroupNrThrottled *int64  `json:"cgroup_nr_throttled"`
	CgroupThrottledUS *int64  `json:"cgroup_throttled_usec"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	NumCPU            int     `json:"num_cpu"`
	CPUModel          string  `json:"cpu_model"`
	VCSRevision       string  `json:"vcs_revision"`
	GoVersion         string  `json:"go_version"`
}

// stamp builds the environment stamp over the interval [a, b].
func stamp(a, b hostSample) envStamp {
	e := envStamp{
		StealS:      float64(b.stealTicks-a.stealTicks) / 100, // USER_HZ
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		VCSRevision: "unknown",
		GoVersion:   runtime.Version(),
	}
	if a.cgroupOK && b.cgroupOK {
		n, us := b.nrThrottled-a.nrThrottled, b.throttledUS-a.throttledUS
		e.CgroupNrThrottled, e.CgroupThrottledUS = &n, &us
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.VCSRevision = s.Value
			}
		}
	}
	return e
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// checks collects output-check failures; any failure makes the run
// incorrect.
type checks struct{ failures []string }

func (c *checks) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.failures = append(c.failures, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}
