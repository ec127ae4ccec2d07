package stats

import (
	"fmt"
	"math"
)

// Mean is a Welford online accumulator for mean and variance.
type Mean struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (m *Mean) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// N returns the number of observations.
func (m *Mean) N() int64 { return m.n }

// Mean returns the running mean (0 with no observations).
func (m *Mean) Mean() float64 { return m.mean }

// Variance returns the population variance.
func (m *Mean) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// StdDev returns the population standard deviation.
func (m *Mean) StdDev() float64 { return math.Sqrt(m.Variance()) }

// FormatSI renders v with an SI suffix (K, M, G, T) for human-readable
// experiment output, e.g. 2500000 -> "2.50M".
func FormatSI(v float64) string {
	abs := math.Abs(v)
	switch {
	case abs >= 1e12:
		return fmt.Sprintf("%.2fT", v/1e12)
	case abs >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case abs >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case abs >= 1e3:
		return fmt.Sprintf("%.2fK", v/1e3)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
