package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// machine fingerprints the host a result document was measured on.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	RSSReset   bool   `json:"rss_reset"`
}

func fingerprint() machine {
	m := machine{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		RSSReset:   resetPeakRSS(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// resetPeakRSS collects garbage and resets the kernel's peak-RSS mark
// (VmHWM) to the current resident set. It reports whether the kernel
// accepted the reset.
func resetPeakRSS() bool {
	runtime.GC()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
