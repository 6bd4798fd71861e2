// Package regress provides the ordinary-least-squares fitting and the
// evaluation metrics (R², RMSE, NRMSE, MAPE) used throughout ConvMeter.
//
// The paper deliberately restricts itself to plain linear regression: the
// hardware influence on runtime is captured entirely by the fitted
// coefficients, while the ConvNet influence is captured by the feature
// columns (FLOPs, Inputs, Outputs, ...).
package regress

import (
	"errors"
	"fmt"
	"math"

	"convmeter/internal/linalg"
)

// Model is a fitted linear model y ≈ Σ coef_j · x_j.
// Whether an intercept is present is up to the caller: append a constant-1
// feature column to get one (the paper's c4 term).
type Model struct {
	Coef []float64 // one per feature column
}

// FitWeighted computes weighted least-squares coefficients: it minimises
// Σ wᵢ·(xᵢ·c − yᵢ)². ConvMeter uses wᵢ = 1/yᵢ² (see FitRelative) so that
// relative residuals are equalised across the four-orders-of-magnitude
// runtime range of a benchmark sweep — plain OLS would let the largest
// runtimes dominate and park the intercept milliseconds away from the
// smallest measurements.
func FitWeighted(features [][]float64, y, weights []float64) (*Model, error) {
	if len(weights) != len(y) {
		return nil, fmt.Errorf("regress: %d weights for %d targets", len(weights), len(y))
	}
	scaledF := make([][]float64, len(features))
	scaledY := make([]float64, len(y))
	for i := range features {
		w := weights[i]
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("regress: invalid weight %g at row %d", w, i)
		}
		sw := math.Sqrt(w)
		row := make([]float64, len(features[i]))
		for j, v := range features[i] {
			row[j] = v * sw
		}
		scaledF[i] = row
		scaledY[i] = y[i] * sw
	}
	return Fit(scaledF, scaledY)
}

// FitRelative fits with wᵢ = 1/max(|yᵢ|, floor)² — i.e. it minimises the
// sum of squared *relative* residuals, aligning the fit objective with
// the MAPE metric the paper reports. floor guards against zero targets;
// pass 0 to use a floor of 1e-12.
func FitRelative(features [][]float64, y []float64) (*Model, error) {
	const floor = 1e-12
	w := make([]float64, len(y))
	for i, v := range y {
		av := math.Abs(v)
		if av < floor {
			av = floor
		}
		w[i] = 1 / (av * av)
	}
	return FitWeighted(features, y, w)
}

// Fit computes the least-squares coefficients for the design matrix whose
// rows are feature vectors and the target vector y. If the design matrix is
// rank deficient (e.g. a feature is constant zero over the sample), Fit
// falls back to a lightly ridge-regularised solve so that callers always
// get a usable model from degenerate benchmark subsets.
//
// Fit fails closed on non-finite numbers: a NaN or ±Inf feature or
// target is an error naming its row (and column), and so is a solve
// whose coefficients overflow. FitWeighted, FitRelative and FitStats
// all solve through Fit, so none of them returns a NaN coefficient.
func Fit(features [][]float64, y []float64) (*Model, error) {
	if len(features) == 0 {
		return nil, errors.New("regress: empty feature set")
	}
	if len(features) != len(y) {
		return nil, fmt.Errorf("regress: %d feature rows but %d targets", len(features), len(y))
	}
	a, err := linalg.FromRows(features)
	if err != nil {
		return nil, err
	}
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("regress: %d samples cannot determine %d coefficients", a.Rows, a.Cols)
	}
	for i, v := range y {
		if !finite(v) {
			return nil, fmt.Errorf("regress: target at row %d is %g; targets must be finite", i, v)
		}
	}
	// Normalise each column to unit maximum magnitude before solving.
	// Feature scales differ by >10 orders of magnitude (FLOPs ≈ 1e12 vs
	// the intercept column of ones), which would otherwise wreck the QR
	// conditioning and make any ridge fallback penalise columns unevenly.
	// The same pass rejects non-finite features.
	scale := make([]float64, a.Cols)
	for j := 0; j < a.Cols; j++ {
		maxAbs := 0.0
		for i := 0; i < a.Rows; i++ {
			x := a.At(i, j)
			if !finite(x) {
				return nil, fmt.Errorf("regress: feature at row %d, column %d is %g; features must be finite", i, j, x)
			}
			if v := math.Abs(x); v > maxAbs {
				maxAbs = v
			}
		}
		if maxAbs == 0 {
			maxAbs = 1 // zero column: leave as-is, ridge handles it
		}
		scale[j] = maxAbs
		for i := 0; i < a.Rows; i++ {
			a.Set(i, j, a.At(i, j)/maxAbs)
		}
	}
	coef, err := linalg.LeastSquares(a, y)
	if errors.Is(err, linalg.ErrRankDeficient) {
		coef, err = linalg.RidgeLeastSquares(a, y, 1e-10)
	}
	if err != nil {
		return nil, err
	}
	for j := range coef {
		coef[j] /= scale[j]
		if !finite(coef[j]) {
			return nil, fmt.Errorf("regress: coefficient %d solved to %g; the design is too ill-scaled to fit", j, coef[j])
		}
	}
	return &Model{Coef: coef}, nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Predict evaluates the model on a single feature vector.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != len(m.Coef) {
		panic(fmt.Sprintf("regress: feature vector has %d entries, model has %d coefficients", len(x), len(m.Coef)))
	}
	return linalg.Dot(m.Coef, x)
}

// PredictAll evaluates the model on every row of features.
func (m *Model) PredictAll(features [][]float64) []float64 {
	out := make([]float64, len(features))
	for i, x := range features {
		out[i] = m.Predict(x)
	}
	return out
}

// CoefStats carries per-coefficient inference statistics for a fitted
// model: the estimate, its standard error, and the t-statistic. They let
// a user judge which ConvNet metrics carry signal on a given platform
// (e.g. Inputs and Outputs dominating FLOPs on bandwidth-bound devices).
type CoefStats struct {
	Estimate []float64
	StdErr   []float64
	TValue   []float64
	DoF      int // residual degrees of freedom
}

// FitStats computes OLS coefficient statistics for the (optionally
// weighted, pass nil for unweighted) regression: SE_j = sqrt(σ̂²·
// [(XᵀX)⁻¹]_jj with σ̂² the residual variance. The fit itself matches
// FitWeighted/Fit.
func FitStats(features [][]float64, y, weights []float64) (*Model, *CoefStats, error) {
	var m *Model
	var err error
	if weights == nil {
		m, err = Fit(features, y)
	} else {
		m, err = FitWeighted(features, y, weights)
	}
	if err != nil {
		return nil, nil, err
	}
	n := len(features)
	k := len(m.Coef)
	dof := n - k
	if dof <= 0 {
		return m, &CoefStats{Estimate: m.Coef, StdErr: make([]float64, k), TValue: make([]float64, k)}, nil
	}
	// Residual variance on the (weighted) scale.
	ssr := 0.0
	for i, row := range features {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		r := m.Predict(row) - y[i]
		ssr += w * r * r
	}
	sigma2 := ssr / float64(dof)
	// Column-normalise before forming the normal matrix — feature scales
	// differ by >10 orders of magnitude, which would otherwise make
	// (XᵀWX) numerically singular. SEs rescale back at the end.
	scale := make([]float64, k)
	for j := 0; j < k; j++ {
		maxAbs := 0.0
		for _, row := range features {
			if v := math.Abs(row[j]); v > maxAbs {
				maxAbs = v
			}
		}
		if maxAbs == 0 {
			maxAbs = 1
		}
		scale[j] = maxAbs
	}
	xtwx := linalg.NewMatrix(k, k)
	for i, row := range features {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				xtwx.Set(a, b, xtwx.At(a, b)+w*(row[a]/scale[a])*(row[b]/scale[b]))
			}
		}
	}
	stats := &CoefStats{
		Estimate: append([]float64(nil), m.Coef...),
		StdErr:   make([]float64, k),
		TValue:   make([]float64, k),
		DoF:      dof,
	}
	for j := 0; j < k; j++ {
		e := make([]float64, k)
		e[j] = 1
		col, err := linalg.SolveLinearSystem(xtwx, e)
		if err != nil {
			// Rank-deficient normal matrix: statistics undefined for this
			// coefficient; leave SE at 0 and flag with a NaN t-value.
			stats.TValue[j] = math.NaN()
			continue
		}
		v := sigma2 * col[j]
		if v < 0 {
			v = 0
		}
		stats.StdErr[j] = math.Sqrt(v) / scale[j]
		if stats.StdErr[j] > 0 {
			stats.TValue[j] = m.Coef[j] / stats.StdErr[j]
		}
	}
	return m, stats, nil
}

// Report bundles the four accuracy metrics the paper reports.
type Report struct {
	R2    float64 // coefficient of determination
	RMSE  float64 // root mean squared error, same unit as y
	NRMSE float64 // RMSE normalised by the range of the actual values
	MAPE  float64 // mean absolute percentage error, as a fraction (0.17 = 17%)
	N     int     // number of evaluated points
}

// Evaluate computes the accuracy metrics of predictions pred against
// measured values actual.
func Evaluate(actual, pred []float64) (Report, error) {
	if len(actual) != len(pred) {
		return Report{}, fmt.Errorf("regress: %d actual vs %d predicted values", len(actual), len(pred))
	}
	if len(actual) == 0 {
		return Report{}, errors.New("regress: nothing to evaluate")
	}
	return Report{
		R2:    R2(actual, pred),
		RMSE:  RMSE(actual, pred),
		NRMSE: NRMSE(actual, pred),
		MAPE:  MAPE(actual, pred),
		N:     len(actual),
	}, nil
}

// String renders the report in the paper's style.
func (r Report) String() string {
	return fmt.Sprintf("R²=%.3f RMSE=%.4g NRMSE=%.3f MAPE=%.3f (n=%d)", r.R2, r.RMSE, r.NRMSE, r.MAPE, r.N)
}

// R2 returns the coefficient of determination 1 − SS_res/SS_tot.
// A constant actual series yields R2 = 0 by convention (no variance to
// explain) unless the prediction is exact, in which case it is 1.
func R2(actual, pred []float64) float64 {
	mu := linalg.Mean(actual)
	ssRes, ssTot := 0.0, 0.0
	for i := range actual {
		r := actual[i] - pred[i]
		d := actual[i] - mu
		ssRes += r * r
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// RMSE returns the root mean squared error.
func RMSE(actual, pred []float64) float64 {
	s := 0.0
	for i := range actual {
		r := actual[i] - pred[i]
		s += r * r
	}
	return math.Sqrt(s / float64(len(actual)))
}

// NRMSE returns the RMSE normalised by the range (max−min) of the actual
// values, following the paper's definition. If the range is zero the RMSE
// itself is returned.
func NRMSE(actual, pred []float64) float64 {
	lo, hi := linalg.MinMax(actual)
	rmse := RMSE(actual, pred)
	rng := hi - lo
	if rng == 0 {
		return rmse
	}
	return rmse / rng
}

// MAPE returns the mean absolute percentage error as a fraction.
// Points with a zero actual value are skipped (percentage error undefined).
func MAPE(actual, pred []float64) float64 {
	s, n := 0.0, 0
	for i := range actual {
		if actual[i] == 0 {
			continue
		}
		s += math.Abs((actual[i] - pred[i]) / actual[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
