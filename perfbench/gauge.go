package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host gauge measures how fast the host runs memory-bound code
// right now, so each timing can be reported at a fixed host speed.
//
// On a shared 2-vCPU VM the same flight at the same seed ran 0.82-1.38×
// its median from one 5 s window to the next with no steal recorded:
// other tenants contend for the shared 105 MiB L3 and memory bus in
// episodes of tens of seconds, longer than a run, so no statistic over
// one run removes them. A fixed compute loop slowed by only a quarter
// as much, but this gauge — random read-modify-writes over a buffer
// larger than the flight's working set — slowed with the flight: over
// two minutes of alternating the two, flight time over gauge time
// stayed within 0.88-1.10 while flight time alone moved 0.82-1.38. In
// a second three-minute comparison the standard deviation of 5 s
// window means of log flight time was 0.089 raw, 0.051 over this
// gauge, 0.078 over a dependent pointer chase of the same size and
// 0.076 over the compute loop.
//
// So every timing is taken between two gauge readings and divided by
// their mean scale (reading over gaugeNominal): a figure is what the
// run would have measured on a host that runs the gauge in
// gaugeNominal. The raw figures are in the report line's detail.
const (
	gaugeWords = 8 << 20 // 64 MiB of uint64
	gaugeSteps = 300_000
	// gaugeNominal is a round figure near the gauge's time on the
	// 2-vCPU Intel Xeon VM the bounds were set on (run medians there
	// read 0.70-0.95 of it). It only fixes the unit: any constant gives
	// the same comparisons between two versions of the program.
	gaugeNominal = 8 * time.Millisecond
)

// gaugeBuf lives outside the Go heap (mmap), so the garbage collector
// neither scans it nor counts it toward its heap goal: the program's
// collection schedule is the one it has without the gauge.
var (
	gaugeBuf   []uint64
	gaugeState uint64 = 88172645463325252
)

// gaugeInit maps and touches the gauge buffer. Its pages stay resident
// for the whole run, so peakRSSMB subtracts them exactly.
func gaugeInit() error {
	if gaugeBuf != nil {
		return nil
	}
	mem, err := syscall.Mmap(-1, 0, gaugeWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("host gauge: %w", err)
	}
	gaugeBuf = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), gaugeWords)
	for i := range gaugeBuf {
		gaugeBuf[i] = uint64(i)
	}
	return nil
}

// hostScale is one gauge reading as a ratio to gaugeNominal, on the
// wall clock and on the process CPU clock: 1.3 means the host ran the
// gauge 30% slower than nominal.
type hostScale struct{ wall, cpu float64 }

// readScale runs the gauge once.
func readScale() hostScale {
	w0, c0 := nowNs(), cpuTime()
	x, acc := gaugeState, uint64(0)
	for i := 0; i < gaugeSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (gaugeWords - 1)
		acc += gaugeBuf[j]
		gaugeBuf[j] = acc
	}
	gaugeState = x
	w, c := nowNs()-w0, cpuTime()-c0
	return hostScale{
		wall: float64(w) / float64(gaugeNominal),
		cpu:  float64(c) / float64(gaugeNominal),
	}
}

// mid is the scale over the interval between readings a and b.
func (a hostScale) mid(b hostScale) hostScale {
	return hostScale{(a.wall + b.wall) / 2, (a.cpu + b.cpu) / 2}
}
