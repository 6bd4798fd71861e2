package metrics

// The quantity types below give the model's numbers physical
// dimensions the type system can see. The compiler keeps them apart:
// a value of one unit cannot be assigned to, compared with or combined
// in arithmetic with another without a conversion. Change dimension
// explicitly — drop to float64, apply the factor that changes the
// quantity, tag the result:
//
//	secs := Seconds(float64(flops) * secondsPerFLOP)
//
// All four are defined float64 so the numerics (regression, linalg)
// keep operating on raw floats after an explicit de-dimensioning.
type (
	// Seconds is a wall-time duration. Phase times, predictions and
	// residuals carry it; throughputs (1/Seconds-shaped) stay float64.
	Seconds float64

	// FLOPs counts floating-point operations — the paper's F metric.
	FLOPs float64

	// Bytes is a memory or traffic volume.
	Bytes float64

	// Count is a dimensionless-but-meaningful cardinality: tensor
	// elements (I, O), parameters (W), layers (L).
	Count float64
)
