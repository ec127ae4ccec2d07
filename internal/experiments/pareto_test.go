package experiments

import (
	"math"
	"testing"
)

func TestParetoFrontierExact(t *testing.T) {
	pts := []ParetoPoint{
		{Lifetime: 10, IPC: 1.0}, // dominated by 2 on both axes
		{Lifetime: 20, IPC: 1.2}, // frontier
		{Lifetime: 30, IPC: 0.8}, // frontier: best lifetime
		{Lifetime: 5, IPC: 1.5},  // frontier: best IPC
		{Lifetime: 20, IPC: 1.2}, // duplicate of 1: non-strict tie, kept
		{Lifetime: 25, IPC: 0.8}, // equal IPC to 2, shorter-lived: dominated
	}
	keep := ParetoFrontier(pts)
	want := []bool{false, true, true, true, true, false}
	for i := range want {
		if keep[i] != want[i] {
			t.Errorf("point %d: keep=%v want %v", i, keep[i], want[i])
		}
	}
}

func TestParetoFrontierCensoredLifetimes(t *testing.T) {
	inf := math.Inf(1)
	pts := []ParetoPoint{
		{Lifetime: inf, IPC: 1.0},
		{Lifetime: inf, IPC: 2.0},
		{Lifetime: 100, IPC: 0.5},
	}
	keep := ParetoFrontier(pts)
	// Censored lifetimes tie with each other, so the higher-IPC censored
	// point dominates both the lower-IPC censored point and the finite
	// point.
	if keep[0] {
		t.Fatal("lower-IPC censored point must be dominated by the higher-IPC one")
	}
	if !keep[1] {
		t.Fatal("best censored point dropped")
	}
	if keep[2] {
		t.Fatal("finite point dominated on both axes survived")
	}
}
