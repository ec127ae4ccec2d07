package policy

import (
	"testing"

	"repro/internal/bdi"
	"repro/internal/hybrid"
)

func rripInfo(set int, block uint64, cb int) hybrid.InsertInfo {
	return hybrid.InsertInfo{Set: set, Block: block, CBSize: cb, CPth: 58}
}

func TestRRIPFamilyTraits(t *testing.T) {
	want := hybrid.Traits{Compressed: true, Migrate: hybrid.MigrateReadReuse}
	for _, p := range []hybrid.Policy{NewSRRIP(), NewBRRIP(16), NewPAR(16)} {
		if got := p.Traits(); got != want {
			t.Errorf("%s traits = %+v, want %+v", p.Name(), got, want)
		}
		if _, ok := p.(hybrid.RRIPInserter); !ok {
			t.Errorf("%s should implement RRIPInserter", p.Name())
		}
	}
}

func TestRRIPSteeringMatchesCARWR(t *testing.T) {
	ref := CARWR{}
	p := NewSRRIP()
	cases := []hybrid.InsertInfo{
		info(hybrid.ReuseRead, 64, 58, false, false, 1),
		info(hybrid.ReuseWrite, 20, 58, true, false, 1),
		info(hybrid.ReuseNone, 40, 58, false, false, 0),
		info(hybrid.ReuseNone, 60, 58, false, false, 0),
	}
	for _, c := range cases {
		if p.Target(c) != ref.Target(c) {
			t.Errorf("SRRIP target diverges from CA_RWR for %+v", c)
		}
	}
}

func TestSizeClassRRPV(t *testing.T) {
	cases := []struct {
		base uint8
		cb   int
		want uint8
	}{
		{rrpvLong, bdi.HCRLimit, rrpvShort},       // HCR: one step nearer
		{rrpvLong, bdi.HCRLimit + 1, rrpvLong},    // LCR: unchanged
		{rrpvLong, bdi.BlockSize, rrpvDistant},    // incompressible: one step farther
		{rrpvDistant, bdi.BlockSize, rrpvDistant}, // saturates high
		{0, 8, 0}, // saturates low
	}
	for _, c := range cases {
		if got := sizeClassRRPV(c.base, c.cb); got != c.want {
			t.Errorf("sizeClassRRPV(%d, %d) = %d, want %d", c.base, c.cb, got, c.want)
		}
	}
}

func TestSRRIPInsertRRPV(t *testing.T) {
	p := NewSRRIP()
	if got := p.InsertRRPV(rripInfo(0, 0, 50)); got != rrpvLong {
		t.Errorf("LCR insert RRPV = %d, want %d", got, rrpvLong)
	}
	if got := p.InsertRRPV(rripInfo(0, 0, 20)); got != rrpvShort {
		t.Errorf("HCR insert RRPV = %d, want %d", got, rrpvShort)
	}
	if got := p.InsertRRPV(rripInfo(0, 0, 64)); got != rrpvDistant {
		t.Errorf("incompressible insert RRPV = %d, want %d", got, rrpvDistant)
	}
}

func TestBRRIPThrottlePerSet(t *testing.T) {
	p := NewBRRIP(4)
	// Interleave two sets: each must hit the long insertion independently
	// on its own 32nd insert.
	for set := 0; set < 2; set++ {
		for i := 1; i < brripThrottle; i++ {
			if got := p.InsertRRPV(rripInfo(set, 0, 50)); got != rrpvDistant {
				t.Fatalf("set %d insert %d: RRPV = %d, want distant", set, i, got)
			}
		}
	}
	for set := 0; set < 2; set++ {
		if got := p.InsertRRPV(rripInfo(set, 0, 50)); got != rrpvLong {
			t.Fatalf("set %d 32nd insert: RRPV = %d, want long", set, got)
		}
		if got := p.InsertRRPV(rripInfo(set, 0, 50)); got != rrpvDistant {
			t.Fatalf("set %d counter should wrap, got RRPV %d", set, got)
		}
	}
}

func TestPhaseDetectorSpatial(t *testing.T) {
	const sets = 64
	d := NewPhaseDetector(sets)
	// Unit-stride scan: successive blocks mapping to set 3 are exactly one
	// indexing period apart.
	for i := uint64(0); i < 32; i++ {
		d.Observe(3, 3+i*sets)
	}
	if c := d.Classify(3); c != PhaseSpatial {
		t.Errorf("stride-1 stream classified %v, want spatial", c)
	}
	if c := d.Classify(4); c != PhaseIrregular {
		t.Errorf("untouched set classified %v, want irregular", c)
	}
}

func TestPhaseDetectorTemporal(t *testing.T) {
	const sets = 64
	d := NewPhaseDetector(sets)
	// Evict-refill churn over a 3-block working set (fits the recency
	// ring): every insert after warmup revisits a recent block.
	blocks := []uint64{5, 5 + 64*sets, 5 + 128*sets}
	for i := 0; i < 32; i++ {
		d.Observe(5, blocks[i%len(blocks)])
	}
	if c := d.Classify(5); c != PhaseTemporal {
		t.Errorf("churn stream classified %v, want temporal", c)
	}
}

func TestPhaseDetectorIrregularAndDecay(t *testing.T) {
	const sets = 64
	d := NewPhaseDetector(sets)
	// Widely scattered blocks: neither nearby strides nor re-references.
	b := uint64(7)
	for i := 0; i < 200; i++ {
		d.Observe(7, b)
		b += uint64(sets) * uint64(1000+i*17)
	}
	if c := d.Classify(7); c != PhaseIrregular {
		t.Errorf("scatter stream classified %v, want irregular", c)
	}
	// Counters must stay bounded by the decay cap.
	if d.total[7] >= phaseDecayCap {
		t.Errorf("total counter %d not decayed below cap %d", d.total[7], phaseDecayCap)
	}
}

func TestPhaseDetectorAdapts(t *testing.T) {
	const sets = 64
	d := NewPhaseDetector(sets)
	for i := uint64(0); i < 64; i++ {
		d.Observe(0, i*sets) // scan phase
	}
	if c := d.Classify(0); c != PhaseSpatial {
		t.Fatalf("after scan: %v, want spatial", c)
	}
	blocks := []uint64{1 * sets, 9 * sets, 17 * sets}
	for i := 0; i < 256; i++ {
		d.Observe(0, blocks[i%len(blocks)]*1000)
	}
	if c := d.Classify(0); c != PhaseTemporal {
		t.Errorf("after churn: %v, want temporal (decay should forget the scan)", c)
	}
}

func TestPARInsertRRPVFollowsPhase(t *testing.T) {
	const sets = 64
	p := NewPAR(sets)
	// Scan phase observed through Target (the LLC's insert callback).
	for i := uint64(0); i < 32; i++ {
		p.Target(rripInfo(2, 2+i*sets, 50))
	}
	if got := p.InsertRRPV(rripInfo(2, 0, 50)); got != rrpvDistant {
		t.Errorf("spatial phase insert RRPV = %d, want distant", got)
	}
	// Cold set: irregular → SRRIP default.
	if got := p.InsertRRPV(rripInfo(9, 0, 50)); got != rrpvLong {
		t.Errorf("irregular phase insert RRPV = %d, want long", got)
	}
	// Temporal set.
	blocks := []uint64{6, 6 + 64*sets, 6 + 128*sets}
	for i := 0; i < 32; i++ {
		p.Target(rripInfo(6, blocks[i%len(blocks)], 50))
	}
	if got := p.InsertRRPV(rripInfo(6, 0, 50)); got != rrpvShort {
		t.Errorf("temporal phase insert RRPV = %d, want short", got)
	}
	if p.Detector().Classify(6) != PhaseTemporal {
		t.Error("detector accessor disagrees with classification")
	}
}

func TestPhaseClassString(t *testing.T) {
	if PhaseSpatial.String() != "spatial" || PhaseTemporal.String() != "temporal" || PhaseIrregular.String() != "irregular" {
		t.Error("phase class names wrong")
	}
}
