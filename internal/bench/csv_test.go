package bench

import (
	"bytes"
	"math"
	"testing"

	"convmeter/internal/core"
	"convmeter/internal/metrics"
)

// TestCSVRoundTripExact pins bit-exact field-for-field round-tripping
// through WriteCSV/ReadCSV for adversarial float values: FormatFloat with
// 17 significant digits must reproduce every float64 exactly, including
// subnormals, MaxFloat64, and values with no short decimal form.
func TestCSVRoundTripExact(t *testing.T) {
	gnarly := []float64{
		math.Pi,
		1.0 / 3.0,
		0.1, // classic non-representable decimal
		math.MaxFloat64,
		math.SmallestNonzeroFloat64, // subnormal
		1e-300,
		6.02214076e23,
		math.Nextafter(1, 2), // 1 + ulp
	}
	var samples []core.Sample
	for i, v := range gnarly {
		samples = append(samples, core.Sample{
			Model: "gnarly",
			Met: metrics.Metrics{
				Model: "gnarly", FLOPs: metrics.FLOPs(v), Inputs: metrics.Count(v / 7), Outputs: metrics.Count(v / 3),
				Weights: metrics.Count(math.Nextafter(v, 0)), Layers: metrics.Count(i + 1),
			},
			Image: 32 + i, BatchPerDevice: 1 + i, Devices: 1, Nodes: 1,
			Fwd: metrics.Seconds(v), Bwd: metrics.Seconds(v / 2), Grad: metrics.Seconds(v / 4),
		})
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, samples); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(samples) {
		t.Fatalf("round trip returned %d rows, want %d", len(back), len(samples))
	}
	for i := range samples {
		// Struct equality is the whole point: every field, bit-exact.
		if back[i] != samples[i] {
			t.Errorf("row %d changed:\n  got %+v\n want %+v", i, back[i], samples[i])
		}
	}
}
