package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"convmeter/internal/core"
	"convmeter/internal/metrics"
)

// csvHeader is the dataset column layout.
var csvHeader = []string{
	"model", "image", "batch", "devices", "nodes",
	"flops", "inputs", "outputs", "weights", "layers",
	"fwd_s", "bwd_s", "grad_s",
}

// WriteCSV serialises samples (with their metrics) so datasets can be
// stored and refitted without re-running the simulators.
func WriteCSV(w io.Writer, samples []core.Sample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }
	for _, s := range samples {
		rec := []string{
			s.Model,
			strconv.Itoa(s.Image),
			strconv.Itoa(s.BatchPerDevice),
			strconv.Itoa(s.Devices),
			strconv.Itoa(s.Nodes),
			f(float64(s.Met.FLOPs)), f(float64(s.Met.Inputs)), f(float64(s.Met.Outputs)), f(float64(s.Met.Weights)), f(float64(s.Met.Layers)),
			f(float64(s.Fwd)), f(float64(s.Bwd)), f(float64(s.Grad)),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset written by WriteCSV.
func ReadCSV(r io.Reader) ([]core.Sample, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("bench: csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("bench: empty csv")
	}
	if len(rows[0]) != len(csvHeader) {
		return nil, fmt.Errorf("bench: csv has %d columns, want %d", len(rows[0]), len(csvHeader))
	}
	for i, h := range csvHeader {
		if rows[0][i] != h {
			return nil, fmt.Errorf("bench: csv column %d is %q, want %q", i, rows[0][i], h)
		}
	}
	var out []core.Sample
	for ln, rec := range rows[1:] {
		ints := make([]int, 4)
		for i := 0; i < 4; i++ {
			v, err := strconv.Atoi(rec[1+i])
			if err != nil {
				return nil, fmt.Errorf("bench: csv line %d col %d: %w", ln+2, 2+i, err)
			}
			if v <= 0 {
				return nil, fmt.Errorf("bench: csv line %d col %d: %s must be positive, got %d", ln+2, 2+i, csvHeader[1+i], v)
			}
			ints[i] = v
		}
		floats := make([]float64, 8)
		for i := 0; i < 8; i++ {
			v, err := strconv.ParseFloat(rec[5+i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench: csv line %d col %d: %w", ln+2, 6+i, err)
			}
			// A NaN or Inf metric poisons every downstream least-squares
			// fit without failing it; reject at the trust boundary.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("bench: csv line %d col %d: non-finite value %q", ln+2, 6+i, rec[5+i])
			}
			floats[i] = v
		}
		out = append(out, core.Sample{
			Model: rec[0],
			Image: ints[0], BatchPerDevice: ints[1], Devices: ints[2], Nodes: ints[3],
			Met: metrics.Metrics{
				Model: rec[0], FLOPs: metrics.FLOPs(floats[0]), Inputs: metrics.Count(floats[1]),
				Outputs: metrics.Count(floats[2]), Weights: metrics.Count(floats[3]), Layers: metrics.Count(floats[4]),
			},
			Fwd: metrics.Seconds(floats[5]), Bwd: metrics.Seconds(floats[6]), Grad: metrics.Seconds(floats[7]),
		})
	}
	return out, nil
}
