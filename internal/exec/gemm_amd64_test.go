package exec

import (
	"math"
	"math/rand"
	"testing"
)

// TestPackPanelMatchesGo holds packPanel, whose full panels go through
// the assembly transpose, to the k-major layout bit for bit: for k of
// 1–17 (no 8×8 block, one, two, with and without a tail), 27, 576 and
// 4,608, and for 1–8 rows. A full panel must also equal packCols from
// float 0, the Go reference.
func TestPackPanelMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ks := []int{27, 576, 4608}
	for k := 1; k <= 17; k++ {
		ks = append(ks, k)
	}
	nan := math.Float32frombits(0x7fc00001)
	for _, k := range ks {
		for rows := 1; rows <= 8; rows++ {
			a := make([]float32, rows*k)
			normalFill(rng, a)
			want := make([]float32, 8*k)
			for r := 0; r < rows; r++ {
				for kk := 0; kk < k; kk++ {
					want[8*kk+r] = a[r*k+kk]
				}
			}
			got := make([]float32, 8*k)
			for i := range got {
				got[i] = nan
			}
			packPanel(got, a, k, rows)
			if err := firstBitDiff(got, want); err != nil {
				t.Errorf("packPanel k %d rows %d: %v", k, rows, err)
			}
			if rows < 8 {
				continue
			}
			ref := make([]float32, 8*k)
			packCols(ref, a, k, 0)
			if err := firstBitDiff(ref, want); err != nil {
				t.Errorf("packCols k %d: %v", k, err)
			}
		}
	}
}
