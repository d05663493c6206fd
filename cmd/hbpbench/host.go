package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machineStamp identifies the host a result was taken on; every result
// carries one so a ledger row can never be read without its machine.
type machineStamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	JournalFS  string  `json:"journal_fs,omitempty"`
	RefP50Ms   float64 `json:"host.ref_p50_ms"`
	RefIQRFrac float64 `json:"host.ref_iqr_frac"`
}

func stampMachine() machineStamp {
	return machineStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
	}
}

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

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
// It falls back to getrusage's ru_maxrss, which Linux reports in KiB.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at
// the current resident set (Linux: "5" to /proc/self/clear_refs), so
// the next peakRSSMB reads the peak since this call. Where the kernel
// does not allow it, peaks stay process-wide.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // see above
}

// memCounters samples the allocator's cumulative counters.
func memCounters() (mallocs, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// usage is the host cost of one measured region.
type usage struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
}

// meter brackets a measured region. ReadMemStats stops the world, so
// both reads sit outside the wall-clock interval.
type meter struct {
	start          time.Time
	cpu            time.Duration
	mallocs, bytes uint64
}

func startMeter() meter {
	var m meter
	m.mallocs, m.bytes = memCounters()
	m.cpu = cpuTime()
	m.start = time.Now()
	return m
}

func (m meter) stop() usage {
	wall := time.Since(m.start)
	cpu := cpuTime() - m.cpu
	mallocs, bytes := memCounters()
	return usage{wall: wall, cpu: cpu, mallocs: mallocs - m.mallocs, bytes: bytes - m.bytes}
}
