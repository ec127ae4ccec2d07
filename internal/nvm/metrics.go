package nvm

import "repro/internal/metrics"

// ArrayStats are the device-level aggregates of an NVM array, computed in
// a single pass over the frames. They expose the wear and fault state the
// array previously kept private to its frames.
type ArrayStats struct {
	BytesWritten      uint64  // bytes ever written, across all frames
	PhaseBytesWritten uint64  // bytes written this phase (resettable)
	LiveFrames        int     // frames still able to hold a block
	DeadFrames        int     // frames disabled for good
	FaultyBytes       int     // disabled bytes across all frames
	CapacityFraction  float64 // remaining effective capacity (0..1)
	WearMean          float64 // mean per-frame shared wear level
	WearMax           float64 // highest per-frame shared wear level
}

// Stats computes the array aggregates in one pass.
func (a *Array) Stats() ArrayStats {
	var st ArrayStats
	if len(a.backing) == 0 {
		return st
	}
	have := 0
	for i := range a.backing {
		f := &a.backing[i]
		st.BytesWritten += f.totalWritten
		st.PhaseBytesWritten += f.phaseWritten
		st.FaultyBytes += f.FaultyBytes()
		have += f.EffectiveCapacity()
		if f.dead {
			st.DeadFrames++
		} else {
			st.LiveFrames++
		}
		st.WearMean += f.wear
		if f.wear > st.WearMax {
			st.WearMax = f.wear
		}
	}
	st.WearMean /= float64(len(a.backing))
	st.CapacityFraction = float64(have) / float64(len(a.backing)*DataBytes)
	return st
}

// RegisterMetrics implements metrics.Registrable: it attaches the array's
// wear, fault and rearrangement state under "nvm.array.*". The frame pass
// runs once per snapshot via an OnSnapshot hook; the individual gauges
// read the cached aggregates.
func (a *Array) RegisterMetrics(reg *metrics.Registry) {
	cache := &ArrayStats{}
	vcache := &WearVariation{}
	reg.OnSnapshot(func() {
		*cache = a.Stats()
		*vcache = a.WearVariation()
	})
	reg.CounterFunc("nvm.array.bytes_written", func() uint64 { return cache.BytesWritten })
	reg.GaugeFunc("nvm.array.phase_bytes_written", func() float64 { return float64(cache.PhaseBytesWritten) })
	reg.GaugeFunc("nvm.array.live_frames", func() float64 { return float64(cache.LiveFrames) })
	reg.GaugeFunc("nvm.array.dead_frames", func() float64 { return float64(cache.DeadFrames) })
	reg.GaugeFunc("nvm.array.faulty_bytes", func() float64 { return float64(cache.FaultyBytes) })
	reg.GaugeFunc("nvm.array.capacity_fraction", func() float64 { return cache.CapacityFraction })
	reg.GaugeFunc("nvm.array.wear_mean", func() float64 { return cache.WearMean })
	reg.GaugeFunc("nvm.array.wear_max", func() float64 { return cache.WearMax })
	reg.GaugeFunc("nvm.array.wear_min", func() float64 { return vcache.WearMin })
	reg.GaugeFunc("nvm.array.wear_interset_cov", func() float64 { return vcache.InterSetCoV })
	reg.GaugeFunc("nvm.array.wear_intraset_cov", func() float64 { return vcache.IntraSetCoV })
	reg.GaugeFunc("nvm.array.wear_gini", func() float64 { return vcache.Gini })
	reg.GaugeFunc("nvm.array.set_remap", func() float64 { return float64(a.remap) })
	reg.GaugeFunc("nvm.array.wearlevel_counter", func() float64 { return float64(a.counter.value) })
}
