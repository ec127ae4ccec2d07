package policy

// PhaseClass is the MPAR-style three-way classification of a set's
// recent insert stream.
type PhaseClass uint8

// Phase classes.
const (
	// PhaseIrregular is the default: no dominant pattern.
	PhaseIrregular PhaseClass = iota
	// PhaseSpatial marks streaming/scan phases: consecutive inserts into
	// the set touch nearby block addresses (strides of a few cache
	// indexing periods).
	PhaseSpatial
	// PhaseTemporal marks re-referencing phases: inserts revisit block
	// addresses seen recently in the set (evict-refill churn over a
	// small working set).
	PhaseTemporal
)

// String names the phase class.
func (c PhaseClass) String() string {
	switch c {
	case PhaseSpatial:
		return "spatial"
	case PhaseTemporal:
		return "temporal"
	}
	return "irregular"
}

const (
	// phaseRing is the per-set recency window for temporal detection.
	phaseRing = 4
	// phaseDecayCap halves the per-set counters once their total reaches
	// it. Decay is driven by the set's own event count — never by epochs —
	// so each set's state depends only on its own stream.
	phaseDecayCap = 64
	// phaseMajority: a class wins when it explains more than half of the
	// decayed observations and at least phaseMinSamples were seen.
	phaseMinSamples = 8
	// phaseStrideSets bounds a "nearby" delta, in units of the cache's
	// set-indexing period (consecutive addresses that map to the same set
	// differ by exactly one period).
	phaseStrideSets = 4
)

// PhaseDetector classifies each set's miss/insert stream as spatial,
// temporal or irregular, after MPAR's memory-phase predictor. All state
// is per-set and advanced only by Observe, with event-driven decay.
type PhaseDetector struct {
	sets     int
	lastBlk  []uint64            // previous observed block per set
	seen     []bool              // lastBlk valid
	ring     [][phaseRing]uint64 // recent blocks per set (temporal window)
	ringLen  []uint8
	ringPos  []uint8
	spatial  []uint16 // decayed spatial votes per set
	temporal []uint16 // decayed temporal votes per set
	total    []uint16 // decayed observations per set
}

// NewPhaseDetector builds a detector for a cache with the given number
// of sets.
func NewPhaseDetector(sets int) *PhaseDetector {
	return &PhaseDetector{
		sets:     sets,
		lastBlk:  make([]uint64, sets),
		seen:     make([]bool, sets),
		ring:     make([][phaseRing]uint64, sets),
		ringLen:  make([]uint8, sets),
		ringPos:  make([]uint8, sets),
		spatial:  make([]uint16, sets),
		temporal: make([]uint16, sets),
		total:    make([]uint16, sets),
	}
}

// Observe feeds one insert into the set's classifier.
func (d *PhaseDetector) Observe(set int, block uint64) {
	// Temporal: the block was inserted into this set recently (it cycled
	// through the cache and came straight back).
	for i := uint8(0); i < d.ringLen[set]; i++ {
		if d.ring[set][i] == block {
			d.temporal[set]++
			break
		}
	}
	// Spatial: small stride from the previous insert, in units of the
	// set-indexing period (blocks hitting the same set are multiples of
	// the set count apart).
	if d.seen[set] {
		delta := int64(block - d.lastBlk[set])
		if delta < 0 {
			delta = -delta
		}
		if delta != 0 && delta <= int64(phaseStrideSets)*int64(d.sets) {
			d.spatial[set]++
		}
	}
	d.lastBlk[set] = block
	d.seen[set] = true
	d.ring[set][d.ringPos[set]] = block
	d.ringPos[set] = (d.ringPos[set] + 1) % phaseRing
	if d.ringLen[set] < phaseRing {
		d.ringLen[set]++
	}
	d.total[set]++
	if d.total[set] >= phaseDecayCap {
		d.total[set] >>= 1
		d.spatial[set] >>= 1
		d.temporal[set] >>= 1
	}
}

// Classify returns the set's current phase class. Temporal dominance is
// checked first: a tight re-reference loop also has small strides, and
// retaining it matters more than aging it out.
func (d *PhaseDetector) Classify(set int) PhaseClass {
	t := d.total[set]
	if t < phaseMinSamples {
		return PhaseIrregular
	}
	if 2*d.temporal[set] > t {
		return PhaseTemporal
	}
	if 2*d.spatial[set] > t {
		return PhaseSpatial
	}
	return PhaseIrregular
}
