// Package dueling implements an N-way set-sampling policy tournament.
//
// The mechanism generalizes the paper's Set Dueling for the compression
// threshold CPth (§IV-C) and its rule-based CP_SD_Th variant (§IV-D): a
// fixed share of the cache sets is partitioned into sampler groups, one
// per tournament candidate; every candidate is tested on sets/Divisor
// sets. The remaining (follower) sets use the candidate that performed
// best in the previous epoch. Each sampler group accumulates its number
// of LLC hits and NVM bytes written; at every epoch boundary the winner
// is recomputed.
//
// Candidates are opaque descriptors (Candidate): the controller
// arbitrates them purely on their votes and never interprets what a
// candidate means. The paper's CPth dueling attaches an integer
// threshold per candidate (New / NewWithCandidates); the policy
// tournament of internal/policy attaches a whole insertion policy per
// candidate through the Payload index (NewTournament).
package dueling

import (
	"fmt"

	"repro/internal/metrics"
)

// DefaultCandidates are the CPth values duelled in the paper's evaluation,
// spanning 30 to 64 (§IV-C). 58 admits every compressed block into NVM;
// 64 admits uncompressed blocks too.
var DefaultCandidates = []int{30, 34, 37, 40, 44, 48, 51, 55, 58, 64}

// GroupDivisor is the default number of equal set classes the cache is
// divided into; each candidate occupies one class (N/32 sets, as in the
// paper).
const GroupDivisor = 32

// Candidate describes one tournament competitor. The controller treats
// it as opaque: only the vote counters of its sampler sets matter for
// winner selection.
type Candidate struct {
	// Name labels the candidate in reports and diagnostics (e.g. "CPth40"
	// or "SRRIP").
	Name string
	// CPth is the compression threshold the candidate's sampler sets run
	// and follower sets adopt while it holds the win.
	CPth int
	// Payload is an opaque caller-owned index; the policy tournament maps
	// it to the insertion policy the candidate's sets delegate to. The
	// controller never reads it.
	Payload int
}

// Controller implements hybrid.ThresholdProvider with N-way set-sampling:
// the paper's CPth dueling when candidates differ only in CPth, a policy
// tournament when the caller attaches per-candidate behaviour via
// Payload and CandidateFor.
type Controller struct {
	cands   []Candidate
	divisor int
	group   []int16 // per set: candidate index, or -1 for followers
	hits    []uint64
	bytes   []uint64
	winner  int // candidate index used by follower sets

	// Th is the maximum percentage of hits the rule may sacrifice; Tw is
	// the minimum percentage of NVM bytes-written reduction required to
	// accept that sacrifice (Eq. 1). Th = 0 disables the rule (plain
	// CP_SD).
	Th, Tw float64

	// History records the winning CPth of every closed epoch; IdxHistory
	// records the winning candidate index (the policy-tournament view,
	// where several candidates may share one CPth). Both start with room
	// for historyReserve epochs, so closing an epoch allocates nothing
	// until a run passes that many.
	History    []int
	IdxHistory []int

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
// threshold list. Thresholds must be in ascending order; their number
// must not exceed GroupDivisor.
func NewWithCandidates(sets int, cpths []int, th, tw float64) *Controller {
	for i := 1; i < len(cpths); i++ {
		if cpths[i] <= cpths[i-1] {
			panic("dueling: candidates must be strictly ascending")
		}
	}
	cands := make([]Candidate, len(cpths))
	for i, v := range cpths {
		cands[i] = Candidate{Name: fmt.Sprintf("CPth%d", v), CPth: v, Payload: i}
	}
	return NewTournament(sets, cands, GroupDivisor, th, tw)
}

// historyReserve is the epoch count the winner histories are sized for
// up front: 128M cycles at the default 2M-cycle epoch.
const historyReserve = 64

// NewTournament builds an N-way tournament controller over opaque
// candidates. divisor is the number of equal set classes (each candidate
// samples on sets/divisor sets; 0 selects GroupDivisor); the candidate
// count must not exceed it. th/tw arm the Eq. 1 trade-off rule (0 for
// plain max-hits selection). The initial winner is the last candidate,
// matching the paper's permissive (highest-CPth) start.
func NewTournament(sets int, cands []Candidate, divisor int, th, tw float64) *Controller {
	if divisor == 0 {
		divisor = GroupDivisor
	}
	if len(cands) == 0 || len(cands) > divisor {
		panic(fmt.Sprintf("dueling: %d candidates, want 1..%d", len(cands), divisor))
	}
	c := &Controller{
		cands:   append([]Candidate(nil), cands...),
		divisor: divisor,
		group:   make([]int16, sets),
		hits:    make([]uint64, len(cands)),
		bytes:   make([]uint64, len(cands)),
		winner:  len(cands) - 1,
		Th:      th,
		Tw:      tw,

		History:    make([]int, 0, historyReserve),
		IdxHistory: make([]int, 0, historyReserve),
	}
	for s := range c.group {
		g := s % divisor
		if g < len(cands) {
			c.group[s] = int16(g)
		} else {
			c.group[s] = -1
		}
	}
	return c
}

// Candidates returns the candidate CPth values (the legacy CPth-dueling
// view; see CandidateList for the full descriptors).
func (c *Controller) Candidates() []int {
	out := make([]int, len(c.cands))
	for i, cd := range c.cands {
		out[i] = cd.CPth
	}
	return out
}

// CandidateList returns the tournament's candidate descriptors.
func (c *Controller) CandidateList() []Candidate {
	return append([]Candidate(nil), c.cands...)
}

// Divisor returns the number of set classes the cache is divided into.
func (c *Controller) Divisor() int { return c.divisor }

// Winner returns the CPth currently used by follower sets.
func (c *Controller) Winner() int { return c.cands[c.winner].CPth }

// WinnerIndex returns the index of the candidate follower sets use.
func (c *Controller) WinnerIndex() int { return c.winner }

// WinnerCandidate returns the descriptor of the current winner.
func (c *Controller) WinnerCandidate() Candidate { return c.cands[c.winner] }

// IsSampler reports whether set is a sampler set and for which candidate.
func (c *Controller) IsSampler(set int) (candidate int, ok bool) {
	g := c.group[set]
	if g < 0 {
		return 0, false
	}
	return int(g), true
}

// CandidateFor returns the index of the candidate governing a set: the
// sampled candidate for sampler sets, the current winner for followers.
// The policy tournament resolves per-set insertion behaviour through it.
func (c *Controller) CandidateFor(set int) int {
	if g := c.group[set]; g >= 0 {
		return int(g)
	}
	return c.winner
}

// CPthFor implements hybrid.ThresholdProvider.
func (c *Controller) CPthFor(set int) int {
	return c.cands[c.CandidateFor(set)].CPth
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
// the lowest index — the smallest CPth under the ascending legacy
// ordering). The Th/Tw rule then looks for the lowest-index candidate j
// satisfying Eq. (1):
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
	c.History = append(c.History, c.cands[sel].CPth)
	c.IdxHistory = append(c.IdxHistory, sel)
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
// recorded by the hierarchy's epoch ring (and in History/IdxHistory).
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
