package experiments

// ParetoPoint is one candidate on the lifetime × IPC plane. Lifetime is
// in months; math.Inf(1) encodes a censored (never-dies) lifetime.
type ParetoPoint struct {
	Lifetime float64
	IPC      float64
}

// dominates reports whether d dominates c: at least as good on both
// axes, strictly better on at least one. Two censored lifetimes tie
// (Inf >= Inf, not Inf > Inf), so they are separated by IPC alone.
func dominates(d, c ParetoPoint) bool {
	return d.Lifetime >= c.Lifetime && d.IPC >= c.IPC &&
		(d.Lifetime > c.Lifetime || d.IPC > c.IPC)
}

// ParetoFrontier reports, for each point, whether it is on the exact
// frontier: no other point dominates it. Duplicates tie and are both
// kept. O(n²), fine for the curve-sized inputs cmd/forecast ranks.
func ParetoFrontier(points []ParetoPoint) []bool {
	keep := make([]bool, len(points))
	for i, c := range points {
		keep[i] = true
		for j, d := range points {
			if i != j && dominates(d, c) {
				keep[i] = false
				break
			}
		}
	}
	return keep
}
