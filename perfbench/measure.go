package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuNow returns the process CPU time (user + system, every thread) in
// seconds. It comes from getrusage(RUSAGE_SELF), which counts only the
// time the process actually ran, so hypervisor steal does not inflate
// it the way it inflates wall-clock time.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 {
	return float64(t.Sec) + float64(t.Usec)/1e6
}

// peakRSSMB is the process's peak resident set size (getrusage
// Maxrss, reported by Linux in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return float64(ru.Maxrss) / 1024
}

// stamp is one reading of every clock the benchmark keeps.
type stamp struct {
	cpu  float64
	wall time.Time
}

func now() stamp { return stamp{cpu: cpuNow(), wall: time.Now()} }

// heapSample reads the runtime's cumulative allocation and GC-cycle
// counters without stopping the world.
type heapSample struct {
	allocBytes uint64
	gcCycles   uint64
}

func readHeap() heapSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return heapSample{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// cpuTicks is the machine-wide "cpu" line of /proc/stat: total ticks
// and the ticks the hypervisor stole from this guest.
type cpuTicks struct {
	total, steal uint64
	ok           bool
}

func readTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t cpuTicks
		// user nice system idle iowait irq softirq steal [guest guest_nice]
		// guest time is already included in user and nice.
		for i, s := range fields[1:9] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuTicks{}
			}
			t.total += v
			if i == 7 {
				t.steal = v
			}
		}
		t.ok = true
		return t
	}
	return cpuTicks{}
}

// stealFrac is the share of machine-wide CPU ticks stolen between a
// and b, or 0 when /proc/stat is unreadable.
func stealFrac(a, b cpuTicks) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// hostRecord describes the machine a run measured on.
type hostRecord struct {
	GOMAXPROCS int
	NumCPU     int
	CPUModel   string
	GoVersion  string
}

func host() hostRecord {
	return hostRecord{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
