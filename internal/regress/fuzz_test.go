package regress

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzFit feeds arbitrary designs — any float64 bit pattern, NaN and
// ±Inf included — through Fit, FitRelative and FitStats. Each must
// either return an error or a model whose coefficients are all finite.
// The seed corpus is the nonFiniteFits table.
func FuzzFit(f *testing.F) {
	for _, c := range nonFiniteFits {
		f.Add(encodeDesign(c.features, c.y), uint8(len(c.features[0])), uint8(c.fit))
	}
	f.Fuzz(func(t *testing.T, raw []byte, cols, kind uint8) {
		k := int(cols%4) + 1
		features, y := decodeDesign(raw, k)
		if len(y) == 0 {
			t.Skip("no complete row")
		}
		m, err := fitKind(kind).fit(features, y)
		if err != nil {
			return
		}
		for j, c := range m.Coef {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("coefficient %d is %g with a nil error; design %v, targets %v", j, c, features, y)
			}
		}
	})
}

// encodeDesign lays rows out as k features followed by the target, each
// a little-endian float64.
func encodeDesign(features [][]float64, y []float64) []byte {
	var raw []byte
	for i, row := range features {
		for _, v := range append(row[:len(row):len(row)], y[i]) {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
	}
	return raw
}

// decodeDesign reads encodeDesign's layout back, keeping at most 32
// complete rows of k features.
func decodeDesign(raw []byte, k int) ([][]float64, []float64) {
	var features [][]float64
	var y []float64
	for len(raw) >= 8*(k+1) && len(y) < 32 {
		row := make([]float64, k)
		for j := range row {
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
		}
		features = append(features, row)
		y = append(y, math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:])))
		raw = raw[8*(k+1):]
	}
	return features, y
}
