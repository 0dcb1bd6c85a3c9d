package estimation

import (
	"math"
	"math/rand"
	"testing"

	"dronedse/mathx"
)

// densePredictP is the covariance propagation written as the dense algebra
// it implements: P ← F P Fᵀ + Q with the explicit F = [I dt·I; 0 I],
// multiplied by mathx.Dense.MulOf, then symmetrized.
func densePredictP(p *mathx.Dense, dt, accelNoise float64) *mathx.Dense {
	s2 := accelNoise * accelNoise
	f := mathx.DenseIdentity(6)
	q := mathx.NewDense(6, 6)
	for i := 0; i < 3; i++ {
		f.Set(i, 3+i, dt)
		q.Set(i, i, 0.25*dt*dt*dt*dt*s2)
		q.Set(i, 3+i, 0.5*dt*dt*dt*s2)
		q.Set(3+i, i, 0.5*dt*dt*dt*s2)
		q.Set(3+i, 3+i, dt*dt*s2)
	}
	t1, t2, out := mathx.NewDense(6, 6), mathx.NewDense(6, 6), mathx.NewDense(6, 6)
	t1.MulOf(f, p)
	t2.MulOf(t1, f.Transpose())
	out.AddOf(t2, q)
	out.Symmetrize()
	return out
}

// TestPredictCovarianceBitIdenticalToDense pins the structured covariance
// propagation to the dense product bit for bit, over random covariances
// seeded with exact zeros and negative zeros, several step sizes and noise
// levels (zero noise included).
func TestPredictCovarianceBitIdenticalToDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		k := NewPosVelEKF()
		k.AccelNoise = []float64{0.8, 0, 3.1}[trial%3]
		dt := []float64{1.0 / 200, 1.0 / 1000, 0.37}[trial/3%3]
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				switch rng.Intn(6) {
				case 0:
					v = 0
				case 1:
					v = math.Copysign(0, -1)
				}
				k.p.Set(i, j, v)
			}
		}
		want := densePredictP(k.p.Clone(), dt, k.AccelNoise)
		k.Predict(mathx.V3(0.1, -0.2, 9.8), dt)
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				if g, w := k.p.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("trial %d: P[%d][%d] = %v (%#x), dense %v (%#x)",
						trial, i, j, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}

func BenchmarkPosVelEKFPredict(b *testing.B) {
	k := NewPosVelEKF()
	accel := mathx.V3(0.1, -0.2, 9.75)
	for b.Loop() {
		k.Predict(accel, 1.0/200)
	}
}
