package metrics

// Sample is one recorded epoch: its index, the wall-clock cycle at which
// it closed, and one value per ring column.
type Sample struct {
	Epoch  int
	Cycles uint64
	Values []float64
}

// EpochRing records a fixed number of per-epoch samples, overwriting the
// oldest once full, so arbitrarily long simulations keep a bounded,
// retrievable time series. Sample values live in storage the ring
// allocates ringChunk samples at a time and reuses once it wraps, so
// recording allocates once per ringChunk epochs while the ring fills and
// never after.
type EpochRing struct {
	columns []string
	samples []Sample
	spare   []float64 // unused value storage for the next samples
	head    int       // next write position once the ring is full
	total   int       // samples ever recorded
}

// ringChunk is how many samples' value storage the ring allocates at once.
const ringChunk = 64

// DefaultEpochRingCapacity bounds the series kept by default: enough for
// 2 G cycles of 2 M-cycle epochs.
const DefaultEpochRingCapacity = 1024

// NewEpochRing builds a ring keeping up to capacity samples of the given
// columns. A non-positive capacity selects DefaultEpochRingCapacity.
func NewEpochRing(capacity int, columns ...string) *EpochRing {
	if capacity <= 0 {
		capacity = DefaultEpochRingCapacity
	}
	if len(columns) == 0 {
		panic("metrics: epoch ring needs at least one column")
	}
	for _, c := range columns {
		if !ValidName(c) {
			panic("metrics: invalid epoch ring column " + c)
		}
	}
	return &EpochRing{
		columns: append([]string(nil), columns...),
		samples: make([]Sample, 0, capacity),
	}
}

// Columns returns the ring's column names.
func (r *EpochRing) Columns() []string { return append([]string(nil), r.columns...) }

// Capacity returns the maximum number of retained samples.
func (r *EpochRing) Capacity() int { return cap(r.samples) }

// Len returns the number of currently retained samples.
func (r *EpochRing) Len() int { return len(r.samples) }

// Total returns the number of samples ever recorded, including ones the
// ring has since overwritten.
func (r *EpochRing) Total() int { return r.total }

// Record appends one epoch sample; values must match the ring's columns.
func (r *EpochRing) Record(epoch int, cycles uint64, values ...float64) {
	if len(values) != len(r.columns) {
		panic("metrics: epoch sample arity mismatch")
	}
	r.total++
	if len(r.samples) < cap(r.samples) {
		n := len(values)
		if len(r.spare) < n {
			r.spare = make([]float64, min(ringChunk, cap(r.samples)-len(r.samples))*n)
		}
		vals := r.spare[:n:n]
		r.spare = r.spare[n:]
		copy(vals, values)
		r.samples = append(r.samples, Sample{Epoch: epoch, Cycles: cycles, Values: vals})
		return
	}
	s := &r.samples[r.head]
	s.Epoch, s.Cycles = epoch, cycles
	copy(s.Values, values)
	r.head = (r.head + 1) % len(r.samples)
}

// Samples returns the retained samples oldest-first, as a deep copy: the
// ring reuses its value storage once it wraps.
func (r *EpochRing) Samples() []Sample {
	out := make([]Sample, 0, len(r.samples))
	out = append(out, r.samples[r.head:]...)
	out = append(out, r.samples[:r.head]...)
	vals := make([]float64, len(out)*len(r.columns))
	for i := range out {
		v := vals[i*len(r.columns) : (i+1)*len(r.columns) : (i+1)*len(r.columns)]
		copy(v, out[i].Values)
		out[i].Values = v
	}
	return out
}

// Series extracts one column oldest-first (nil for an unknown column).
func (r *EpochRing) Series(column string) []float64 {
	idx := -1
	for i, c := range r.columns {
		if c == column {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	out := make([]float64, 0, len(r.samples))
	for _, s := range r.Samples() {
		out = append(out, s.Values[idx])
	}
	return out
}
