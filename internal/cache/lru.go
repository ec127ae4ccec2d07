package cache

// Keyed-min LRU scans. Every way gets the key stamp<<8 | way, and a scan
// keeps the running minimum m with the branch-free update
//
//	d := key - m
//	m += d & (d >> 63) // arithmetic shift: m = min(m, key)
//
// so the loop body has no data-dependent branch for the host's predictor
// to miss. (Go's builtin min compiles to a compare and jump here.)
//
// The minimum key is exactly the old branchy choice, "the first invalid
// way, else the least recently used one": invalid ways carry stamp 0, so
// their keys are their way numbers and sit below every valid key, and the
// way number in the low byte breaks equal stamps towards the lower way.
//
// Preconditions, which the callers keep:
//   - at most MaxWays ways, so the way fits the key's low 8 bits
//     (cache.New and hybrid.New panic above it);
//   - stamps below 2^54. Keys then stay below NoWay = 2^62, so a fitting
//     way always beats an unfit one. (Below 2^55 the keys stay under 2^63
//     and the signed subtraction cannot overflow; NoWay halves that.)
//     Stamps count accesses from 1, so no simulation comes near either.

// MaxWays is the largest associativity the keyed scans support: the way
// number occupies the low 8 bits of a key.
const MaxWays = 256

// NoWay is the key of a way the incoming block does not fit, and the
// starting minimum of every scan: a scan that ends at or above NoWay found
// no way (KeyWay returns -1).
const NoWay uint64 = 1 << 62

// LRUKey returns the smaller of m and the least key stamps[w]<<8|(first+w)
// over stamps. first is the way number of stamps[0], so scans over parts
// of a set (the hybrid LLC's SRAM and NVM ways) chain through m.
func LRUKey(m uint64, stamps []uint64, first int) uint64 {
	for w, t := range stamps {
		d := (t<<8 | uint64(first+w)) - m
		m += d & uint64(int64(d)>>63)
	}
	return m
}

// FitLRUKey is LRUKey over the ways a cb-byte block fits: way w fits when
// cb <= caps[w]. An unfit way's key is raised to NoWay or above, so it
// never wins. caps must be at least as long as stamps.
func FitLRUKey(m uint64, stamps []uint64, first int, caps []uint8, cb int) uint64 {
	caps = caps[:len(stamps)]
	for w, t := range stamps {
		unfit := uint64((int64(caps[w]) - int64(cb)) >> 63) // all ones when cb > caps[w]
		d := (t<<8 | uint64(first+w) | unfit&NoWay) - m
		m += d & uint64(int64(d)>>63)
	}
	return m
}

// KeyWay returns the way a scan's minimum key names, or -1 when no way
// was eligible.
func KeyWay(m uint64) int {
	if m >= NoWay {
		return -1
	}
	return int(m & (MaxWays - 1))
}
