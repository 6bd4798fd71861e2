package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"convmeter/internal/obs"
)

// segConfig configures one segment: a fresh process that sets up one
// workload, warms it up and runs its ops in a closed loop with one
// client until the duration has passed and the current cycle is done.
type segConfig struct {
	workload string
	seed     int64
	dur      time.Duration
	// cycles, when positive, runs exactly that many cycles instead.
	cycles int
	traced bool
	// chromeTrace, when set on a traced segment, receives its spans as a
	// Chrome trace.
	chromeTrace string
}

// opSample is one timed op: its class, latency, the mean of the
// yardstick readings around it, the peak resident set size of the
// process during the call (MB, the yardstick's arrays excluded) and
// its output fingerprint.
type opSample struct {
	Class int     `json:"c"`
	Ms    float64 `json:"ms"`
	Y     float64 `json:"y"`
	RSS   float64 `json:"rss"`
	FP    string  `json:"fp,omitempty"`
}

// segResult is what a segment reports. Times are Unix nanoseconds so
// that the parent can relate them to when it started the process: main
// entered, warm-up began, set-up (warm-up included) ended.
type segResult struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	MainNs    int64  `json:"main_ns"`
	WarmupNs  int64  `json:"warmup_ns"`
	FirstOpNs int64  `json:"first_op_ns"`
	// SetupYardMs is the first yardstick reading, right after set-up.
	SetupYardMs float64     `json:"setup_yard_ms"`
	Setup       setupTimes  `json:"setup"`
	Classes     []classInfo `json:"classes"`
	Ops         []opSample  `json:"ops"`
	Attempted   int         `json:"attempted"`
	Failed      int         `json:"failed"`
	Errors      []string    `json:"errors,omitempty"`
	PeakRSSMB   float64     `json:"peak_rss_mb"`
	// AllocMB and GCs are the heap allocation and GC cycles of the
	// timed loop.
	AllocMB float64            `json:"alloc_mb"`
	GCs     uint32             `json:"gcs"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	Detail  map[string]float64 `json:"detail,omitempty"`

	// SpawnNs is set by the parent: when it started the process.
	SpawnNs int64 `json:"spawn_ns"`
}

const maxErrors = 5

func (r *segResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

// runSegment runs one segment in this process.
func runSegment(cfg segConfig) *segResult {
	r := &segResult{Workload: cfg.workload, Traced: cfg.traced, MainNs: time.Now().UnixNano()}
	var o *obs.Obs
	if cfg.traced {
		o = obs.New()
	}
	r.Attempted++
	wl, err := newWorkload(cfg.workload, cfg.seed, o, &r.Setup)
	if err != nil {
		r.fail(err)
		return r
	}
	r.Classes = wl.classes()
	r.WarmupNs = time.Now().UnixNano()
	if err := wl.warmup(); err != nil {
		r.fail(fmt.Errorf("warm-up: %w", err))
	}
	r.FirstOpNs = time.Now().UnixNano()

	// Every op is bracketed by yardstick readings; it is normalised by
	// their mean. The yardstick is set up after the set-up time is taken.
	y, err := newYardstick()
	if err != nil {
		r.fail(err)
		return r
	}
	defer y.close()
	y.measure() // page faults and cold caches
	last := -1  // the op awaiting its closing reading
	reading := func() float64 {
		v := y.measure()
		if last >= 0 {
			r.Ops[last].Y = (r.Ops[last].Y + v) / 2
			last = -1
		}
		return v
	}

	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	var mark int
	var regBefore []obs.Point
	if o != nil {
		mark, regBefore = o.Trc.Len(), o.Reg.Snapshot()
	}
	order := rand.New(rand.NewSource(cfg.seed ^ 0x0c1a55))
	start := time.Now()
	for cycle := 1; ; cycle++ {
		for _, c := range order.Perm(len(r.Classes)) {
			r.Attempted++
			yb := reading()
			if r.SetupYardMs == 0 {
				r.SetupYardMs = yb
			}
			wl.prepare(c)
			resetPeakRSS()
			sp := o.Start("perfbench:" + r.Classes[c].Name)
			t0 := time.Now()
			err := wl.call()
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			sp.End()
			rss := peakRSSMB() - y.residentMB()
			if err != nil {
				r.fail(fmt.Errorf("%s: %w", r.Classes[c].Name, err))
				continue
			}
			fp, err := wl.check()
			if err != nil {
				r.fail(err)
				continue
			}
			r.Ops = append(r.Ops, opSample{Class: c, Ms: ms, Y: yb, RSS: rss, FP: fp})
			last = len(r.Ops) - 1
		}
		if cfg.cycles > 0 && cycle >= cfg.cycles || cfg.cycles <= 0 && time.Since(start) >= cfg.dur {
			break
		}
	}
	reading()
	runtime.ReadMemStats(&mem1)
	r.AllocMB = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1e6
	r.GCs = mem1.NumGC - mem0.NumGC
	if cfg.traced {
		r.Layers, r.Detail = computeLayers(o.Trc.SpansFrom(mark),
			kernelSeconds(regBefore, o.Reg.Snapshot()), r.Classes, r.Ops)
		if cfg.chromeTrace != "" {
			if err := writeChromeTrace(o, cfg.chromeTrace); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			}
		}
	}
	r.Attempted++
	if err := wl.finish(); err != nil {
		r.fail(err)
	}
	return r
}

func writeChromeTrace(o *obs.Obs, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := o.Trc.WriteChromeTrace(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
