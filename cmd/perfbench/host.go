package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostFacts records what the numbers were measured on.
type hostFacts struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	TCPWmemMax int64  `json:"tcp_wmem_max"`
	TCPRmemMax int64  `json:"tcp_rmem_max"`
}

func readHostFacts(procs int) hostFacts {
	return hostFacts{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		TCPWmemMax: lastField("/proc/sys/net/ipv4/tcp_wmem"),
		TCPRmemMax: lastField("/proc/sys/net/ipv4/tcp_rmem"),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// lastField reads the last whitespace-separated integer of a file such
// as /proc/sys/net/ipv4/tcp_wmem ("min default max"); 0 when unreadable.
func lastField(path string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, err := strconv.ParseInt(f[len(f)-1], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// resetPeakRSS resets this process's peak resident set size to its
// current one, so that the next peakRSSMB reads the peak since the
// reset. Where the kernel refuses, the peak stays the process's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns this process's peak resident set size (VmHWM) in
// MB, or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != "VmHWM" {
			continue
		}
		fields := strings.Fields(v) // "123456 kB"
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb * 1024 / 1e6
	}
	return 0
}
