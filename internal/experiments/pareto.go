package experiments

// This file is the one Pareto-frontier implementation both consumers of
// the lifetime × IPC plane share: cmd/forecast's frontier column (exact,
// zero margins) and the simd sweep planner's analytic screening
// (margin-aware — a config is only screened when another config
// dominates it by more than the estimates' combined error bounds).

import "math"

// ParetoPoint is one candidate on the lifetime × IPC plane. Lifetime is
// in months; math.Inf(1) encodes a censored (never-dies) lifetime. The
// margins are relative error bounds applied symmetrically: a point's
// metrics are trusted only down to v·(1−margin) and up to v·(1+margin).
// Zero margins give the exact frontier.
type ParetoPoint struct {
	Lifetime       float64
	IPC            float64
	LifetimeMargin float64
	IPCMargin      float64
}

// dominates reports whether d safely dominates c: d's lower-bounded
// metrics are at least c's upper-bounded metrics on both axes, strictly
// on at least one. Infinite lifetimes survive the margin scaling
// (Inf·(1−m) = Inf for m < 1) and tie non-strictly with each other, so
// two censored points are separated by IPC alone.
func dominates(d, c ParetoPoint) bool {
	dl, di := d.Lifetime*(1-d.LifetimeMargin), d.IPC*(1-d.IPCMargin)
	cl, ci := c.Lifetime*(1+c.LifetimeMargin), c.IPC*(1+c.IPCMargin)
	if math.IsInf(d.Lifetime, 1) {
		dl = math.Inf(1)
	}
	if math.IsInf(c.Lifetime, 1) {
		cl = math.Inf(1)
	}
	return dl >= cl && di >= ci && (dl > cl || di > ci)
}

// ParetoFrontier reports, for each point, whether it is on the frontier:
// no other point safely dominates it. Points another point dominates
// only within the margins are kept — with honest error bounds a point on
// the true frontier is never marked dominated. O(n²), fine for the
// sweep- and curve-sized inputs this repo ranks.
func ParetoFrontier(points []ParetoPoint) []bool {
	keep := make([]bool, len(points))
	for i, c := range points {
		keep[i] = true
		for j, d := range points {
			if i == j {
				continue
			}
			if dominates(d, c) {
				keep[i] = false
				break
			}
		}
	}
	return keep
}
