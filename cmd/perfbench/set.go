package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

const (
	// rounds is the number of segments of each workload in a run. Each
	// sets up a fresh process, so setup_s has one sample per round.
	rounds = 5
	// runLimit bounds a whole run; a segment still going at the limit is
	// killed and the run fails.
	runLimit = 170 * time.Second
	// probeLimit bounds the TCP probe, which waits out a 2 s timeout
	// when a payload stalls.
	probeLimit = 30 * time.Second
	schema     = "convmeter/perfbench/v1"
)

// runConfig is one run: a set of rounds over one or more workloads.
type runConfig struct {
	workloads []string
	seed      int64
	seconds   float64
	trace     bool
	procs     int
}

// metricValue is one reported metric. For an end-to-end metric, Value
// is normalised to the nominal yardstick for times and as measured
// otherwise, Raw is as measured, and Segments are the values of each
// round alone. Per-layer metrics carry Value and Unit only.
type metricValue struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Raw      float64   `json:"raw,omitempty"`
	Segments []float64 `json:"segments,omitempty"`
}

// tailInfo is the highest percentile with at least ten samples beyond
// it, over every untraced op of a workload (normalised).
type tailInfo struct {
	Percentile float64 `json:"percentile"`
	Ms         float64 `json:"ms"`
	Samples    int     `json:"samples"`
}

type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Tail      *tailInfo              `json:"tail,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Detail    map[string]float64     `json:"detail,omitempty"`
	Segments  []*segResult           `json:"segments"`
}

// yardstickInfo summarises the run's yardstick readings. Drift is the
// ratio of their 90th to their 10th percentile: how far the host's
// speed moved during the run.
type yardstickInfo struct {
	NominalMs float64 `json:"nominal_ms"`
	MedianMs  float64 `json:"median_ms"`
	Drift     float64 `json:"drift"`
	Readings  int     `json:"readings"`
}

// runResult is the result file of a run.
type runResult struct {
	Schema    string                     `json:"schema"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Host      hostFacts                  `json:"host"`
	Yardstick yardstickInfo              `json:"yardstick"`
	TCPMaxOK  int                        `json:"tcp_max_ok_floats,omitempty"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// run executes the rounds: in each, one segment per workload in an
// order rotated per round, each in its own process. A traced run gives
// every round an untraced and a traced segment of half the length.
func run(cfg runConfig) (*runResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	segSeconds := cfg.seconds / rounds
	modes := []bool{false}
	if cfg.trace {
		segSeconds /= 2
		modes = []bool{false, true}
	}
	segs := map[string][]*segResult{}
	chromed := map[string]bool{} // workloads whose Chrome trace is written
	for r := 0; r < rounds; r++ {
		for k := range cfg.workloads {
			w := cfg.workloads[(k+r)%len(cfg.workloads)]
			for m := range modes {
				traced := modes[(m+r)%len(modes)]
				chrome := ""
				if traced && !chromed[w] {
					chromed[w] = true
					dir := traceDir(cfg, w)
					if err := os.MkdirAll(dir, 0o755); err != nil {
						return nil, err
					}
					chrome = filepath.Join(dir, "trace.json")
				}
				seg, err := spawnSegment(ctx, self, cfg.procs, segConfig{workload: w, seed: cfg.seed,
					dur: time.Duration(segSeconds * float64(time.Second)), traced: traced, chromeTrace: chrome})
				if err != nil {
					return nil, fmt.Errorf("%s segment %d: %w", w, r+1, err)
				}
				segs[w] = append(segs[w], seg)
			}
		}
	}
	res := &runResult{Schema: schema, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: readHostFacts(cfg.procs), Workloads: map[string]*workloadResult{}}
	var yard []float64
	for _, ss := range segs {
		for _, s := range ss {
			for _, op := range s.Ops {
				yard = append(yard, op.Y)
			}
		}
	}
	res.Yardstick = yardstickInfo{NominalMs: nominalYardstickMs, MedianMs: median(yard), Readings: len(yard)}
	if lo := percentile(yard, 10); lo > 0 {
		res.Yardstick.Drift = percentile(yard, 90) / lo
	}
	if cfg.trace {
		if res.TCPMaxOK, err = spawnProbe(ctx, self, cfg.procs); err != nil {
			return nil, err
		}
	}
	for _, w := range cfg.workloads {
		res.Workloads[w] = aggregate(segs[w], res)
	}
	return res, nil
}

func traceDir(cfg runConfig, w string) string {
	return filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d", w, cfg.seed))
}

func childCmd(ctx context.Context, self string, procs int, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	return cmd
}

// spawnSegment runs one segment in a child process and decodes its
// report from the child's standard output.
func spawnSegment(ctx context.Context, self string, procs int, sc segConfig) (*segResult, error) {
	trace := "0"
	if sc.traced {
		trace = "1"
	}
	var out bytes.Buffer
	cmd := childCmd(ctx, self, procs, "-child", "-workload", sc.workload, "-seed", strconv.FormatInt(sc.seed, 10),
		"-seconds", strconv.FormatFloat(sc.dur.Seconds(), 'g', -1, 64), "-trace", trace, "-chrome-trace", sc.chromeTrace)
	cmd.Stdout = &out
	spawn := time.Now().UnixNano()
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var seg segResult
	if err := json.Unmarshal(out.Bytes(), &seg); err != nil {
		return nil, fmt.Errorf("decoding segment report: %w", err)
	}
	seg.SpawnNs = spawn
	return &seg, nil
}

// spawnProbe runs the TCP probe in a child process, which a stalled
// ring cannot outlive.
func spawnProbe(ctx context.Context, self string, procs int) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, probeLimit)
	defer cancel()
	var out bytes.Buffer
	cmd := childCmd(ctx, self, procs, "-tcp-probe")
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("tcp probe: %w", err)
	}
	var n int
	if err := json.Unmarshal(out.Bytes(), &n); err != nil {
		return 0, fmt.Errorf("tcp probe: %w", err)
	}
	return n, nil
}

// opMs returns an op's latency, normalised to the nominal yardstick or
// as measured.
func opMs(op opSample, norm bool) float64 {
	if norm {
		return normalise(op.Ms, op.Y, nominalYardstickMs, "lower")
	}
	return op.Ms
}

// endToEndOf computes the end-to-end metrics of a group of segments
// (one round, or all of a run's untraced rounds), normalised to the
// nominal yardstick or as measured. set-up time is the median over the
// segments, normalised by the first reading after it. The rest pool
// every op, each normalised by the readings around it: items_per_s is
// the items over the summed op time; op_p50_ms the median latency of
// each request class, combined over classes by geometric mean so that
// every class counts alike whatever its speed (for one class, the
// median); peak_rss_mb the 90th percentile over ops of the peak
// resident set size during the op, which moves less with the garbage
// collector's timing than the process's single peak.
func endToEndOf(segs []*segResult, norm bool) map[string]float64 {
	var setup, rss []float64
	var items, busy float64
	var byClass [][]float64
	for _, s := range segs {
		v := float64(s.FirstOpNs-s.SpawnNs) / 1e9
		if norm {
			v = normalise(v, s.SetupYardMs, nominalYardstickMs, "lower")
		}
		setup = append(setup, v)
		for len(byClass) < len(s.Classes) {
			byClass = append(byClass, nil)
		}
		for _, op := range s.Ops {
			ms := opMs(op, norm)
			byClass[op.Class] = append(byClass[op.Class], ms)
			items += s.Classes[op.Class].Items
			busy += ms / 1e3
			rss = append(rss, op.RSS)
		}
	}
	var meds []float64
	for _, xs := range byClass {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	v := map[string]float64{"setup_s": median(setup), "op_p50_ms": geomean(meds), "peak_rss_mb": percentile(rss, 90)}
	if busy > 0 {
		v["items_per_s"] = items / busy
	}
	return v
}

// aggregate turns a workload's segments into its result.
func aggregate(segs []*segResult, res *runResult) *workloadResult {
	wr := &workloadResult{Metrics: map[string]metricValue{}, Segments: segs}
	var plain, traced []*segResult
	for _, s := range segs {
		wr.Attempted += s.Attempted
		wr.Failed += s.Failed
		for _, e := range s.Errors {
			if len(wr.Errors) < maxErrors {
				wr.Errors = append(wr.Errors, e)
			}
		}
		if s.Traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	if mismatched, err := crossCheck(segs); err != nil {
		wr.Failed += mismatched
		if len(wr.Errors) < maxErrors {
			wr.Errors = append(wr.Errors, err.Error())
		}
	}
	wr.Correct = wr.Failed == 0

	raw, norm := endToEndOf(plain, false), endToEndOf(plain, true)
	rounds := make([]map[string]float64, len(plain))
	for i, s := range plain {
		rounds[i] = endToEndOf([]*segResult{s}, true)
	}
	for _, spec := range endToEnd {
		per := make([]float64, len(plain))
		for i := range plain {
			per[i] = rounds[i][spec.Name]
		}
		wr.Metrics[spec.Name] = metricValue{Value: norm[spec.Name], Unit: spec.Unit, Raw: raw[spec.Name], Segments: per}
	}
	var lat []float64
	for _, s := range plain {
		for _, op := range s.Ops {
			lat = append(lat, opMs(op, true))
		}
	}
	if p, v, ok := tail(lat); ok {
		wr.Tail = &tailInfo{Percentile: p, Ms: v, Samples: len(lat)}
	}
	if len(traced) > 0 {
		wr.PerLayer, wr.Detail = perLayerMetrics(plain, traced, res)
	}
	return wr
}

// crossCheck compares the output fingerprints of op i across segments:
// every segment of a seed runs the same ops, so they must agree. It
// returns the number of disagreeing ops.
func crossCheck(segs []*segResult) (int, error) {
	var ref []string
	bad := 0
	var first error
	for _, s := range segs {
		for i, op := range s.Ops {
			if op.FP == "" {
				continue
			}
			if i >= len(ref) {
				ref = append(ref, op.FP)
				continue
			}
			if op.FP != ref[i] {
				bad++
				if first == nil {
					first = fmt.Errorf("%s op %d: output %s differs from an earlier segment's %s", s.Workload, i, op.FP, ref[i])
				}
			}
		}
	}
	return bad, first
}

// perLayerMetrics combines the traced segments' layer metrics with the
// set-up and runtime figures of the untraced ones and the run's host
// readings. Every per-layer metric is present.
func perLayerMetrics(plain, traced []*segResult, res *runResult) (map[string]metricValue, map[string]float64) {
	vals := map[string][]float64{}
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	detail := map[string][]float64{}
	for _, s := range traced {
		for k, v := range s.Layers {
			add(k, v)
		}
		for k, v := range s.Detail {
			detail[k] = append(detail[k], v)
		}
	}
	for _, s := range plain {
		prepare := float64(s.WarmupNs-s.MainNs) / 1e6
		add("setup.process_ms", float64(s.MainNs-s.SpawnNs)/1e6)
		add("setup.prepare_ms", prepare)
		add("setup.warmup_ms", float64(s.FirstOpNs-s.WarmupNs)/1e6)
		if prepare > 0 {
			add("setup.build_share", s.Setup.BuildMs/prepare)
			add("setup.init_share", s.Setup.InitMs/prepare)
		}
		if n := float64(len(s.Ops)); n > 0 {
			add("runtime.alloc_mb_per_op", s.AllocMB/n)
			add("runtime.gc_per_op", float64(s.GCs)/n)
		}
	}
	tracedP50 := endToEndOf(traced, true)["op_p50_ms"]
	vals["trace.op_p50_ms"] = []float64{tracedP50}
	if base := endToEndOf(plain, true)["op_p50_ms"]; base > 0 {
		vals["trace.overhead"] = []float64{tracedP50/base - 1}
	}
	vals["host.yardstick_ms"] = []float64{res.Yardstick.MedianMs}
	vals["host.drift"] = []float64{res.Yardstick.Drift}
	vals["allreduce.tcp_max_ok_floats"] = []float64{float64(res.TCPMaxOK)}
	out := map[string]metricValue{}
	for _, spec := range perLayer {
		out[spec.Name] = metricValue{Value: median(vals[spec.Name]), Unit: spec.Unit}
	}
	med := map[string]float64{}
	for k, v := range detail {
		med[k] = median(v)
	}
	return out, med
}

// writeLayers writes a workload's layers.json: every per-layer metric
// with its unit and the end-to-end metric it should move, and the
// absolute milliseconds per op behind the shares.
func writeLayers(dir, w string, wr *workloadResult, seed int64) error {
	type layer struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		Moves string  `json:"moves"`
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Overhead float64            `json:"tracing_overhead"`
		Layers   map[string]layer   `json:"per_layer"`
		Detail   map[string]float64 `json:"ms_per_op"`
	}{Workload: w, Seed: seed, Overhead: wr.PerLayer["trace.overhead"].Value,
		Layers: map[string]layer{}, Detail: wr.Detail}
	for _, spec := range perLayer {
		doc.Layers[spec.Name] = layer{Value: wr.PerLayer[spec.Name].Value, Unit: spec.Unit, Moves: spec.Moves}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(data, '\n'), 0o644)
}

// printSummary prints every metric by name and unit, raw beside
// normalised, with the host facts and the yardstick.
func printSummary(f *os.File, res *runResult) {
	h := res.Host
	fmt.Fprintf(f, "host: %s, nproc %d, GOMAXPROCS %d, %s, tcp_wmem max %d, tcp_rmem max %d\n",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.TCPWmemMax, h.TCPRmemMax)
	fmt.Fprintf(f, "yardstick: nominal %.2f ms, median %.2f ms, drift %.3f over %d readings\n",
		res.Yardstick.NominalMs, res.Yardstick.MedianMs, res.Yardstick.Drift, res.Yardstick.Readings)
	names := make([]string, 0, len(res.Workloads))
	for w := range res.Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		wr := res.Workloads[w]
		fmt.Fprintf(f, "%s: correct %t, %d attempted, %d failed\n", w, wr.Correct, wr.Attempted, wr.Failed)
		for _, e := range wr.Errors {
			fmt.Fprintf(f, "  error: %s\n", e)
		}
		for _, spec := range endToEnd {
			m := wr.Metrics[spec.Name]
			fmt.Fprintf(f, "  %-12s %12.4f %-8s raw %12.4f  round spread %.3f  bound %.2f\n",
				spec.Name, m.Value, spec.Unit, m.Raw, spread(m.Segments), spec.Bound)
		}
		if wr.Tail != nil {
			fmt.Fprintf(f, "  tail: p%g %.3f ms over %d ops\n", wr.Tail.Percentile, wr.Tail.Ms, wr.Tail.Samples)
		}
		for _, spec := range perLayer {
			if m, ok := wr.PerLayer[spec.Name]; ok {
				fmt.Fprintf(f, "  %-40s %12.4f %s\n", spec.Name, m.Value, spec.Unit)
			}
		}
	}
}
