package experiments

import (
	"fmt"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/dueling"
)

// CPthRow is one x-position of Figs. 6 and 7: the CA and CA_RWR policies
// evaluated at a fixed compression threshold, averaged over mixes.
type CPthRow struct {
	CPth          int
	CAHits        float64
	CARWRHits     float64
	CANVMBytes    float64
	CARWRNVMBytes float64
}

// CPthSweep is the full Fig. 6 + Fig. 7 dataset. Hits and NVM bytes are
// raw per-window means; normalise against BH for the paper's axes.
type CPthSweep struct {
	Rows       []CPthRow
	BHHits     float64
	BHNVMBytes float64
	CPSDHits   float64
	CPSDBytes  float64
}

// NormalizedHitRate returns row hits normalised to BH (Fig. 6 y-axis).
func (s *CPthSweep) NormalizedHitRate(hits float64) float64 {
	if s.BHHits == 0 {
		return 0
	}
	return hits / s.BHHits
}

// NormalizedBytes returns NVM bytes normalised to BH (Fig. 7 y-axis).
func (s *CPthSweep) NormalizedBytes(bytes float64) float64 {
	if s.BHNVMBytes == 0 {
		return 0
	}
	return bytes / s.BHNVMBytes
}

// Fig6And7CPthSweep evaluates CA and CA_RWR at every candidate CPth, plus
// the BH reference and the CP_SD adaptive line, averaged across mixes.
// Per-threshold failures do not abort the sweep: a CPth row is dropped
// when any of its CA or CA_RWR cells failed, and the failures are
// returned as structured task records; only the reference lines (BH,
// CP_SD), which the normalisation needs, are fatal.
func Fig6And7CPthSweep(base core.Config, mixes []int, warmup, measure uint64) (CPthSweep, []cliutil.TaskResult, error) {
	// Variants 0 and 1 are the reference lines; CA and CA_RWR at
	// candidate i are variants 2+2i and 3+2i.
	variants := []Variant{policyVariant("BH"), policyVariant("CP_SD")}
	for _, cpth := range dueling.DefaultCandidates {
		for _, pol := range []string{"CA", "CA_RWR"} {
			variants = append(variants, Variant{fmt.Sprintf("%s/cpth=%d", pol, cpth),
				func(c *core.Config) { c.PolicyName, c.CPth = pol, cpth }})
		}
	}
	g := runGrid(base, variants, mixes, func(_ int, cfg core.Config) (core.Summary, error) {
		return measureAt(cfg, 1, warmup, measure)
	})
	var out CPthSweep
	if err := g.err(0, 1); err != nil {
		return out, g.results, err
	}
	out.BHHits, out.BHNVMBytes = meanCounts(g.rows[0])
	out.CPSDHits, out.CPSDBytes = meanCounts(g.rows[1])
	for i, cpth := range dueling.DefaultCandidates {
		ca, okCA := g.row(2 + 2*i)
		rwr, okRWR := g.row(3 + 2*i)
		if !okCA || !okRWR {
			continue
		}
		row := CPthRow{CPth: cpth}
		row.CAHits, row.CANVMBytes = meanCounts(ca)
		row.CARWRHits, row.CARWRNVMBytes = meanCounts(rwr)
		out.Rows = append(out.Rows, row)
	}
	return out, g.results, nil
}

// measureAt is the cell of the single-window figures: it builds the
// cell's system, pre-ages it to capacity (1 leaves it fresh) and
// measures one window.
func measureAt(cfg core.Config, capacity float64, warmup, measure uint64) (core.Summary, error) {
	sys, err := cfg.Build()
	if err != nil {
		return core.Summary{}, err
	}
	core.PreAge(sys, capacity)
	return core.Measure(sys, warmup, measure), nil
}

// sumCounts sums a row's hits and NVM bytes written in mix order.
func sumCounts(row []core.Summary) (hits, bytes uint64) {
	for _, s := range row {
		hits += s.Hits
		bytes += s.NVMBytesWritten
	}
	return hits, bytes
}

// meanCounts is the across-mix mean of a row's hits and NVM bytes
// written, as whole counts: each sum divided by the mix count and
// truncated.
func meanCounts(row []core.Summary) (hits, bytes float64) {
	h, b := sumCounts(row)
	n := float64(len(row))
	return float64(uint64(float64(h) / n)), float64(uint64(float64(b) / n))
}

// Fig8Result is the optimal-CPth epoch distribution of Fig. 8.
type Fig8Result struct {
	Candidates []int
	// Capacities lists the NVM capacity operating points of Fig. 8a;
	// ByCapacity[i][k] is the fraction of epochs in which candidate k had
	// the most hits at capacity Capacities[i], pooled over mixes.
	Capacities []float64
	ByCapacity [][]float64
	// Mixes lists mix ids; ByMix[i][k] is the same distribution per mix
	// at 100% capacity (Fig. 8b).
	Mixes []int
	ByMix [][]float64
}

// Fig8OptimalCPth measures, per set-dueling epoch, which CPth candidate
// achieved the most hits in its sampler sets, across NVM capacities and
// mixes. The first failed (capacity, mix) cell fails the whole result.
func Fig8OptimalCPth(base core.Config, mixes []int, capacities []float64, warmupEpochs, epochs int) (Fig8Result, error) {
	res := Fig8Result{
		Candidates: append([]int(nil), dueling.DefaultCandidates...),
		Capacities: capacities,
		Mixes:      mixes,
	}
	nc := len(res.Candidates)
	variants := make([]Variant, len(capacities))
	for i, capacity := range capacities {
		variants[i] = Variant{fmt.Sprintf("cap=%g", capacity), func(c *core.Config) { c.PolicyName = "CP_SD" }}
	}
	// A cell's value counts, per candidate, the epochs it won.
	g := runGrid(base, variants, mixes, func(v int, cfg core.Config) ([]float64, error) {
		sys, err := cfg.Build()
		if err != nil {
			return nil, err
		}
		core.PreAge(sys, capacities[v])
		d, ok := core.Dueling(sys)
		if !ok {
			return nil, fmt.Errorf("experiments: CP_SD system has no dueling controller")
		}
		d.RecordPerEpoch = true
		sys.Run(uint64(warmupEpochs+epochs) * cfg.EpochCycles)
		eh := d.EpochHits
		if len(eh) > epochs {
			eh = eh[len(eh)-epochs:]
		}
		counts := make([]float64, nc)
		for _, hits := range eh {
			best := 0
			for k := 1; k < nc; k++ {
				if hits[k] > hits[best] {
					best = k
				}
			}
			counts[best]++
		}
		return counts, nil
	})
	if err := g.err(); err != nil {
		return res, err
	}
	res.ByMix = make([][]float64, len(mixes))
	for ci, capacity := range capacities {
		counts := make([]float64, nc)
		for mi, cell := range g.rows[ci] {
			for k, n := range cell {
				counts[k] += n
			}
			if capacity == 1.0 {
				normalize(cell)
				res.ByMix[mi] = cell
			}
		}
		normalize(counts)
		res.ByCapacity = append(res.ByCapacity, counts)
	}
	return res, nil
}

func normalize(xs []float64) {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if sum == 0 {
		return
	}
	for i := range xs {
		xs[i] /= sum
	}
}

// ThPoint is one marker of Fig. 9: hits and NVM bytes written of CP_SD_Th
// at a given Th and NVM capacity, normalised to BH at 100% capacity.
type ThPoint struct {
	Th       float64
	Capacity float64
	Hits     float64 // normalised to BH @ 100%
	NVMBytes float64 // normalised to BH @ 100%
}

// Fig9ThTradeoff sweeps Th at base's Tw across capacities. Th=0 reproduces
// plain CP_SD. A (Th, capacity) point is dropped when any of its cells
// failed and the failures are returned as structured task records; the
// BH reference is fatal.
func Fig9ThTradeoff(base core.Config, mixes []int, ths []float64, capacities []float64, warmup, measure uint64) ([]ThPoint, []cliutil.TaskResult, error) {
	// pts[v] is variant v's point, its capacity the cell's pre-aging;
	// variant 0 is the fresh BH reference.
	variants := []Variant{policyVariant("BH")}
	pts := []ThPoint{{Capacity: 1}}
	for _, capacity := range capacities {
		for _, th := range ths {
			variants = append(variants, Variant{fmt.Sprintf("th=%g/cap=%g", th, capacity), func(c *core.Config) {
				if th == 0 {
					c.PolicyName = "CP_SD"
				} else {
					c.PolicyName, c.Th = "CP_SD_Th", th
				}
			}})
			pts = append(pts, ThPoint{Th: th, Capacity: capacity})
		}
	}
	g := runGrid(base, variants, mixes, func(v int, cfg core.Config) (core.Summary, error) {
		return measureAt(cfg, pts[v].Capacity, warmup, measure)
	})
	if err := g.err(0); err != nil {
		return nil, g.results, err
	}
	bhHits, bhBytes := meanCounts(g.rows[0])
	n := float64(len(mixes))
	var out []ThPoint
	for v := 1; v < len(variants); v++ {
		row, ok := g.row(v)
		if !ok {
			continue
		}
		hits, bytes := sumCounts(row)
		p := pts[v]
		p.Hits = float64(hits) / n / bhHits
		p.NVMBytes = float64(bytes) / n / bhBytes
		out = append(out, p)
	}
	return out, g.results, nil
}

// EpochSizeRow is one point of the §IV-C epoch-size sensitivity study.
type EpochSizeRow struct {
	EpochCycles uint64
	Hits        float64 // mean hits per cycle across mixes (comparable rate)
	HitRate     float64
}

// EpochSizeSweep evaluates CP_SD under different set-dueling epoch sizes
// (the paper selects 2M cycles). The first failed cell fails the whole
// sweep.
func EpochSizeSweep(base core.Config, mixes []int, sizes []uint64, warmup, measure uint64) ([]EpochSizeRow, error) {
	variants := make([]Variant, len(sizes))
	for i, sz := range sizes {
		variants[i] = Variant{fmt.Sprintf("epoch=%d", sz), func(c *core.Config) {
			c.PolicyName = "CP_SD"
			c.EpochCycles = sz
		}}
	}
	g := runGrid(base, variants, mixes, func(_ int, cfg core.Config) (core.Summary, error) {
		return measureAt(cfg, 1, warmup, measure)
	})
	if err := g.err(); err != nil {
		return nil, err
	}
	out := make([]EpochSizeRow, len(sizes))
	for i, row := range g.rows {
		hits, _ := meanCounts(row)
		var rate float64
		for _, s := range row {
			rate += s.HitRate
		}
		out[i] = EpochSizeRow{
			EpochCycles: sizes[i],
			Hits:        hits / float64(measure),
			HitRate:     rate / float64(len(row)),
		}
	}
	return out, nil
}
