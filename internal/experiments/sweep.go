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
// Per-threshold failures do not abort the sweep: failed rows are dropped
// from the result and returned as structured task records; only the
// reference lines (BH, CP_SD), which the normalisation needs, are fatal.
func Fig6And7CPthSweep(base core.Config, mixes []int, warmup, measure uint64) (CPthSweep, []cliutil.TaskResult, error) {
	var out CPthSweep
	bh := base
	bh.PolicyName = "BH"
	_, bhMean, err := core.MeasureMixes(bh, mixes, warmup, measure)
	if err != nil {
		return out, nil, err
	}
	out.BHHits = float64(bhMean.Hits)
	out.BHNVMBytes = float64(bhMean.NVMBytesWritten)

	rows := make([]CPthRow, len(dueling.DefaultCandidates))
	tasks := make([]cliutil.Task, len(dueling.DefaultCandidates))
	for i := range tasks {
		i := i
		cpth := dueling.DefaultCandidates[i]
		tasks[i] = cliutil.Task{Name: fmt.Sprintf("cpth=%d", cpth), Run: func() error {
			row := CPthRow{CPth: cpth}
			ca := base
			ca.PolicyName, ca.CPth = "CA", cpth
			_, m, err := core.MeasureMixes(ca, mixes, warmup, measure)
			if err != nil {
				return err
			}
			row.CAHits = float64(m.Hits)
			row.CANVMBytes = float64(m.NVMBytesWritten)

			rwr := base
			rwr.PolicyName, rwr.CPth = "CA_RWR", cpth
			_, m, err = core.MeasureMixes(rwr, mixes, warmup, measure)
			if err != nil {
				return err
			}
			row.CARWRHits = float64(m.Hits)
			row.CARWRNVMBytes = float64(m.NVMBytesWritten)
			rows[i] = row
			return nil
		}}
	}
	results := cliutil.RunTasks(tasks, cliutil.PoolConfig{})
	for i, r := range results {
		if !r.Failed() {
			out.Rows = append(out.Rows, rows[i])
		}
	}

	sd := base
	sd.PolicyName = "CP_SD"
	_, m, err := core.MeasureMixes(sd, mixes, warmup, measure)
	if err != nil {
		return out, results, err
	}
	out.CPSDHits = float64(m.Hits)
	out.CPSDBytes = float64(m.NVMBytesWritten)
	return out, results, nil
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
// mixes. Each (capacity, mix) cell runs on the hardened pool; the first
// failure fails the whole result.
func Fig8OptimalCPth(base core.Config, mixes []int, capacities []float64, warmupEpochs, epochs int) (Fig8Result, error) {
	res := Fig8Result{
		Candidates: append([]int(nil), dueling.DefaultCandidates...),
		Capacities: capacities,
		Mixes:      mixes,
	}
	nc := len(res.Candidates)
	// wins[i] counts, per candidate, the epochs it won in cell i.
	wins := make([][]float64, len(capacities)*len(mixes))
	tasks := make([]cliutil.Task, len(wins))
	for i := range tasks {
		i := i
		capacity := capacities[i/len(mixes)]
		m := mixes[i%len(mixes)]
		tasks[i] = cliutil.Task{Name: fmt.Sprintf("cap=%g/mix=%d", capacity, m+1), Run: func() error {
			cfg := base
			cfg.MixID = m
			cfg.PolicyName = "CP_SD"
			sys, err := cfg.Build()
			if err != nil {
				return err
			}
			core.PreAge(sys, capacity)
			d, ok := core.Dueling(sys)
			if !ok {
				return fmt.Errorf("experiments: CP_SD system has no dueling controller")
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
			wins[i] = counts
			return nil
		}}
	}
	if err := cliutil.ErrOf(cliutil.RunTasks(tasks, cliutil.PoolConfig{})); err != nil {
		return res, err
	}
	res.ByMix = make([][]float64, len(mixes))
	for ci, capacity := range capacities {
		counts := make([]float64, nc)
		for mi := range mixes {
			cell := wins[ci*len(mixes)+mi]
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

// Fig9ThTradeoff sweeps Th at Tw=tw across capacities. Th=0 reproduces
// plain CP_SD. Failed (Th, capacity) points are dropped from the result
// and returned as structured task records; the BH reference is fatal.
func Fig9ThTradeoff(base core.Config, mixes []int, ths []float64, capacities []float64, tw float64, warmup, measure uint64) ([]ThPoint, []cliutil.TaskResult, error) {
	bh := base
	bh.PolicyName = "BH"
	_, bhMean, err := core.MeasureMixes(bh, mixes, warmup, measure)
	if err != nil {
		return nil, nil, err
	}
	bhHits := float64(bhMean.Hits)
	bhBytes := float64(bhMean.NVMBytesWritten)

	pts := make([]ThPoint, len(capacities)*len(ths))
	tasks := make([]cliutil.Task, len(pts))
	for i := range tasks {
		i := i
		capacity := capacities[i/len(ths)]
		th := ths[i%len(ths)]
		tasks[i] = cliutil.Task{Name: fmt.Sprintf("th=%g/cap=%g", th, capacity), Run: func() error {
			var hits, bytes float64
			for _, m := range mixes {
				cfg := base
				cfg.MixID = m
				if th == 0 {
					cfg.PolicyName = "CP_SD"
				} else {
					cfg.PolicyName = "CP_SD_Th"
					cfg.Th, cfg.Tw = th, tw
				}
				sys, err := cfg.Build()
				if err != nil {
					return err
				}
				core.PreAge(sys, capacity)
				s := core.Measure(sys, warmup, measure)
				hits += float64(s.Hits)
				bytes += float64(s.NVMBytesWritten)
			}
			n := float64(len(mixes))
			pts[i] = ThPoint{
				Th:       th,
				Capacity: capacity,
				Hits:     hits / n / bhHits,
				NVMBytes: bytes / n / bhBytes,
			}
			return nil
		}}
	}
	results := cliutil.RunTasks(tasks, cliutil.PoolConfig{})
	var out []ThPoint
	for i, r := range results {
		if !r.Failed() {
			out = append(out, pts[i])
		}
	}
	return out, results, nil
}

// EpochSizeRow is one point of the §IV-C epoch-size sensitivity study.
type EpochSizeRow struct {
	EpochCycles uint64
	Hits        float64 // mean hits per cycle across mixes (comparable rate)
	HitRate     float64
}

// EpochSizeSweep evaluates CP_SD under different set-dueling epoch sizes
// (the paper selects 2M cycles). Each size runs on the hardened pool;
// the first failure fails the whole sweep.
func EpochSizeSweep(base core.Config, mixes []int, sizes []uint64, warmup, measure uint64) ([]EpochSizeRow, error) {
	out := make([]EpochSizeRow, len(sizes))
	tasks := make([]cliutil.Task, len(sizes))
	for i, sz := range sizes {
		i, sz := i, sz
		tasks[i] = cliutil.Task{Name: fmt.Sprintf("epoch=%d", sz), Run: func() error {
			cfg := base
			cfg.PolicyName = "CP_SD"
			cfg.EpochCycles = sz
			_, m, err := core.MeasureMixes(cfg, mixes, warmup, measure)
			if err != nil {
				return err
			}
			out[i] = EpochSizeRow{
				EpochCycles: sz,
				Hits:        float64(m.Hits) / float64(measure),
				HitRate:     m.HitRate,
			}
			return nil
		}}
	}
	if err := cliutil.ErrOf(cliutil.RunTasks(tasks, cliutil.PoolConfig{})); err != nil {
		return nil, err
	}
	return out, nil
}
