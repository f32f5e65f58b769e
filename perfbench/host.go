//go:build linux

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/units"
)

// Host time in this benchmark is the CPU time of the thread that runs
// the simulations: the main goroutine, locked to the process's main
// thread from initialisation on. On a dedicated host it equals the wall
// time of a single-worker run. On a shared VM it leaves out the time the
// thread waited for a CPU, which with paravirtual steal accounting
// includes the time the hypervisor gave to other tenants; that swings
// wall time by up to 2x within minutes on the host this was built on.
// Work the Go runtime does on other threads, such as background garbage
// collection, is not counted; alloc_mb_per_point and the runtime.gc_*
// metrics show it.
func init() { runtime.LockOSThread() }

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU returns the calling thread's CPU time since it started; for
// the main thread that is since the process started.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("perfbench: clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// hostTime runs fn and returns the host time it took.
func hostTime(fn func()) time.Duration {
	start := threadCPU()
	fn()
	return threadCPU() - start
}

// host identifies the machine a result was measured on. Host-time metrics
// are comparable only between results with the same fingerprint.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func fingerprint() host {
	return host{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo; hosts
// without one report "unknown".
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

// resetPeakRSS sets the kernel's peak resident set of this process back
// to its current resident set. Where the kernel refuses, peakRSSMB reads
// the peak since the process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set since the last
// resetPeakRSS (VmHWM), in MB (10^6 bytes); 0 where it cannot be read.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * float64(units.KiB) / units.BytesPerMB
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// gcDelta is the Go runtime's own cost over a measured region.
type gcDelta struct {
	allocBytes uint64
	cycles     uint32
	pause      time.Duration
}

// measureGC runs fn between two runtime.MemStats reads.
func measureGC(fn func()) gcDelta {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return gcDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		cycles:     after.NumGC - before.NumGC,
		pause:      time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}
