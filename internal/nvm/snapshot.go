package nvm

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Snapshotting. The paper's forecast procedure explicitly begins each
// simulation phase by "reading the NVM LLC state" — the fault map and wear
// of every frame (§V-A). This file serialises exactly that state so long
// forecasts can be checkpointed and resumed: per-byte endurance limits,
// accumulated wear, fault maps and the wear-leveling counters.

// FrameSnapshot is the persistent state of one frame.
type FrameSnapshot struct {
	Limits  [FrameBytes]float64
	Wear    float64
	FaultLo uint64
	FaultHi uint64
	Dead    bool
}

// ArraySnapshot is the persistent state of an NVM array.
type ArraySnapshot struct {
	Sets, Ways  int
	Granularity Granularity
	Model       EnduranceModel
	Counter     int
	Remap       int
	Frames      []FrameSnapshot
}

// Snapshot captures the array's full wear state.
func (a *Array) Snapshot() ArraySnapshot {
	s := ArraySnapshot{
		Sets: a.sets, Ways: a.ways,
		Granularity: a.gran, Model: a.model,
		Counter: a.counter.Value(), Remap: a.remap,
		Frames: make([]FrameSnapshot, len(a.frames)),
	}
	for i, f := range a.frames {
		s.Frames[i] = FrameSnapshot{
			Limits:  f.limits,
			Wear:    f.wear,
			FaultLo: f.faultLo,
			FaultHi: uint64(f.faultHi),
			Dead:    f.dead,
		}
	}
	return s
}

// RestoreArray reconstructs an array from a snapshot.
func RestoreArray(s ArraySnapshot) (*Array, error) {
	if s.Sets <= 0 || s.Ways < 0 || len(s.Frames) != s.Sets*s.Ways {
		return nil, fmt.Errorf("nvm: inconsistent snapshot geometry %dx%d with %d frames",
			s.Sets, s.Ways, len(s.Frames))
	}
	a := newArray(s.Sets, s.Ways, s.Model, s.Granularity)
	a.remap = s.Remap
	a.counter.Advance(s.Counter)
	for i, fs := range s.Frames {
		restoreFrame(a.frames[i], fs, s.Granularity)
	}
	a.publishAll()
	return a, nil
}

// restoreFrame rebuilds f from persistent state: limits, fault map, live
// count and wear. Like a sampled frame it leaves the death order for
// ensureOrder to build on first need; until then nextLimit is the
// smallest live byte's limit.
func restoreFrame(f *Frame, s FrameSnapshot, gran Granularity) {
	// Bits past byte 65 carry no byte.
	*f = Frame{limits: s.Limits, wear: s.Wear, faultLo: s.FaultLo, faultHi: uint8(s.FaultHi & 0x3), gran: gran}
	live := FrameBytes - f.FaultMap().Count()
	f.live = uint8(live)
	f.nextLimit = f.minLiveLimit()
	f.dead = s.Dead || (gran == FrameDisabling && live < FrameBytes) || live < MinECB
}

// WriteSnapshot gob-encodes the array state to w.
func (a *Array) WriteSnapshot(w io.Writer) error {
	return gob.NewEncoder(w).Encode(a.Snapshot())
}

// ReadSnapshot decodes an array state from r.
func ReadSnapshot(r io.Reader) (*Array, error) {
	var s ArraySnapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return RestoreArray(s)
}
