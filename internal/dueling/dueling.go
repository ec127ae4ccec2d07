// Package dueling implements the paper's Set Dueling for the compression
// threshold CPth (§IV-C) and its rule-based CP_SD_Th variant (§IV-D).
//
// A fixed share of the cache sets is partitioned into sampler groups,
// one per candidate CPth; every candidate is tested on sets/GroupDivisor
// sets. The remaining (follower) sets use the candidate that performed
// best in the previous epoch. Each sampler group accumulates its number
// of LLC hits and NVM bytes written; at every epoch boundary the winner
// is recomputed.
package dueling

import (
	"fmt"

	"repro/internal/metrics"
)

// DefaultCandidates are the CPth values duelled in the paper's evaluation,
// spanning 30 to 64 (§IV-C). 58 admits every compressed block into NVM;
// 64 admits uncompressed blocks too.
var DefaultCandidates = []int{30, 34, 37, 40, 44, 48, 51, 55, 58, 64}

// GroupDivisor is the number of equal set classes the cache is divided
// into; each candidate occupies one class (N/32 sets, as in the paper).
const GroupDivisor = 32

// Controller implements hybrid.ThresholdProvider with CPth set dueling.
type Controller struct {
	cands  []int   // candidate CPth values, strictly ascending
	group  []int16 // per set: candidate index, or -1 for followers
	hits   []uint64
	bytes  []uint64
	winner int // candidate index used by follower sets

	// Th is the maximum percentage of hits the rule may sacrifice; Tw is
	// the minimum percentage of NVM bytes-written reduction required to
	// accept that sacrifice (Eq. 1). Th = 0 disables the rule (plain
	// CP_SD).
	Th, Tw float64

	// History records the winning CPth of every closed epoch. It starts
	// with room for historyReserve epochs, so closing an epoch allocates
	// nothing until a run passes that many.
	History []int

	// RecordPerEpoch, when set before the run, keeps per-epoch copies of
	// each candidate's hit and byte counters (for Fig 8-style analyses).
	RecordPerEpoch bool
	EpochHits      [][]uint64
	EpochBytes     [][]uint64
}

// New builds a controller for a cache with the given number of sets using
// DefaultCandidates and thresholds th/tw (both 0 for plain CP_SD).
func New(sets int, th, tw float64) *Controller {
	return NewWithCandidates(sets, DefaultCandidates, th, tw)
}

// NewWithCandidates builds a CPth-dueling controller with an explicit
// threshold list. Thresholds must be in strictly ascending order; there
// must be 1 to GroupDivisor of them. The initial winner is the last
// candidate, the paper's permissive (highest-CPth) start.
func NewWithCandidates(sets int, cpths []int, th, tw float64) *Controller {
	if len(cpths) == 0 || len(cpths) > GroupDivisor {
		panic(fmt.Sprintf("dueling: %d candidates, want 1..%d", len(cpths), GroupDivisor))
	}
	for i := 1; i < len(cpths); i++ {
		if cpths[i] <= cpths[i-1] {
			panic("dueling: candidates must be strictly ascending")
		}
	}
	c := &Controller{
		cands:   append([]int(nil), cpths...),
		group:   make([]int16, sets),
		hits:    make([]uint64, len(cpths)),
		bytes:   make([]uint64, len(cpths)),
		winner:  len(cpths) - 1,
		Th:      th,
		Tw:      tw,
		History: make([]int, 0, historyReserve),
	}
	for s := range c.group {
		if g := s % GroupDivisor; g < len(cpths) {
			c.group[s] = int16(g)
		} else {
			c.group[s] = -1
		}
	}
	return c
}

// historyReserve is the epoch count History is sized for up front:
// 128M cycles at the default 2M-cycle epoch.
const historyReserve = 64

// Candidates returns the candidate CPth values.
func (c *Controller) Candidates() []int { return append([]int(nil), c.cands...) }

// Winner returns the CPth currently used by follower sets.
func (c *Controller) Winner() int { return c.cands[c.winner] }

// WinnerIndex returns the index of the candidate follower sets use.
func (c *Controller) WinnerIndex() int { return c.winner }

// IsSampler reports whether set is a sampler set and for which candidate.
func (c *Controller) IsSampler(set int) (candidate int, ok bool) {
	g := c.group[set]
	if g < 0 {
		return 0, false
	}
	return int(g), true
}

// CPthFor implements hybrid.ThresholdProvider: a sampler set runs its
// own candidate, a follower the current winner.
func (c *Controller) CPthFor(set int) int {
	if g := c.group[set]; g >= 0 {
		return c.cands[g]
	}
	return c.cands[c.winner]
}

// RecordHit implements hybrid.ThresholdProvider.
func (c *Controller) RecordHit(set int) {
	if g := c.group[set]; g >= 0 {
		c.hits[g]++
	}
}

// RecordNVMBytes implements hybrid.ThresholdProvider.
func (c *Controller) RecordNVMBytes(set int, n int) {
	if g := c.group[set]; g >= 0 {
		c.bytes[g] += uint64(n)
	}
}

// EndEpoch implements hybrid.ThresholdProvider: it applies the selection
// rule of §IV-C/§IV-D and resets the epoch counters.
//
// Plain selection picks the candidate with the most hits (ties break to
// the lowest index, the smallest CPth). The Th/Tw rule then looks for
// the lowest-index candidate j satisfying Eq. (1):
//
//	H(j) > H(i)*(1 - Th/100)  and  W(j) < W(i)*(1 - Tw/100)
//
// where i is the plain winner.
func (c *Controller) EndEpoch() {
	best := 0
	for k := 1; k < len(c.cands); k++ {
		if c.hits[k] > c.hits[best] {
			best = k
		}
	}
	sel := best
	if c.Th > 0 {
		hFloor := float64(c.hits[best]) * (1 - c.Th/100)
		wCeil := float64(c.bytes[best]) * (1 - c.Tw/100)
		for j := 0; j < len(c.cands); j++ {
			if float64(c.hits[j]) > hFloor && float64(c.bytes[j]) < wCeil {
				sel = j
				break
			}
		}
	}
	c.winner = sel
	c.History = append(c.History, c.cands[sel])
	if c.RecordPerEpoch {
		c.EpochHits = append(c.EpochHits, append([]uint64(nil), c.hits...))
		c.EpochBytes = append(c.EpochBytes, append([]uint64(nil), c.bytes...))
	}
	for k := range c.hits {
		c.hits[k] = 0
		c.bytes[k] = 0
	}
}

// RegisterMetrics implements metrics.Registrable: the controller's state
// appears under "dueling.*" — the CPth follower sets currently use, the
// winning candidate index, the number of closed epochs, and the open
// epoch's aggregate sampler counters. The per-epoch winner series is
// recorded by the hierarchy's epoch ring (and in History).
func (c *Controller) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("dueling.cpth", func() float64 { return float64(c.Winner()) })
	reg.GaugeFunc("dueling.winner_idx", func() float64 { return float64(c.WinnerIndex()) })
	reg.CounterFunc("dueling.epochs", func() uint64 { return uint64(len(c.History)) })
	reg.GaugeFunc("dueling.epoch_hits", func() float64 {
		var t uint64
		for _, h := range c.hits {
			t += h
		}
		return float64(t)
	})
	reg.GaugeFunc("dueling.epoch_bytes", func() float64 {
		var t uint64
		for _, b := range c.bytes {
			t += b
		}
		return float64(t)
	})
}

// EpochCounters returns the current (open) epoch's per-candidate hit and
// byte counters, for tests and diagnostics.
func (c *Controller) EpochCounters() (hits, bytes []uint64) {
	return append([]uint64(nil), c.hits...), append([]uint64(nil), c.bytes...)
}

// OpenVoteTotals sums the open epoch's hit and byte counters across all
// candidates (the values behind the dueling.epoch_hits/epoch_bytes
// gauges), without allocating.
func (c *Controller) OpenVoteTotals() (hits, bytes uint64) {
	for k := range c.hits {
		hits += c.hits[k]
		bytes += c.bytes[k]
	}
	return hits, bytes
}

// SamplerSets returns how many sets sample candidate k.
func (c *Controller) SamplerSets(k int) int {
	n := 0
	for _, g := range c.group {
		if int(g) == k {
			n++
		}
	}
	return n
}
