package faultinject

import "repro/internal/stats"

// TraceFault describes deterministic corruption applied to a serialized
// trace: tail truncation (a partially written file) and random bit flips
// (media rot). The trace reader must survive both with a positioned
// error, never a panic — this package's TestTraceFault* tests drive
// this through the decoder.
type TraceFault struct {
	Seed     uint64 `json:"seed"`
	Truncate int    `json:"truncate,omitempty"` // bytes cut from the tail
	BitFlips int    `json:"bit_flips,omitempty"`
}

// Apply returns a corrupted copy of data; the input is not modified.
// Equal (fault, data) pairs always return identical bytes.
func (tf TraceFault) Apply(data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	if tf.Truncate > 0 {
		if tf.Truncate >= len(out) {
			return out[:0]
		}
		out = out[:len(out)-tf.Truncate]
	}
	if tf.BitFlips > 0 && len(out) > 0 {
		rng := stats.NewRNG(tf.Seed)
		for i := 0; i < tf.BitFlips; i++ {
			pos := rng.Intn(len(out))
			out[pos] ^= 1 << uint(rng.Intn(8))
		}
	}
	return out
}
