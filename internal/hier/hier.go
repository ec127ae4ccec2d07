// Package hier simulates the paper's 4-core memory hierarchy (Table IV):
// per-core private L1 and L2 caches, and a shared non-inclusive hybrid LLC.
// The block movement follows the NVM-friendly mostly-exclusive flow of
// §III-A: an LLC miss fills the private levels directly from memory, L2
// victims (clean or dirty) are written to the LLC if absent, and a GetX
// that hits the LLC invalidates the LLC copy.
//
// Timing is trace-driven: each core advances its own cycle counter by the
// issue cost of the instruction gap plus the load-use latency of the level
// that served the access. Cores are interleaved in global cycle order, so
// the shared LLC observes a realistic cross-core access ordering and the
// set-dueling epochs (2M cycles) elapse in wall-clock cycles.
package hier

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/hybrid"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Latencies holds the load-use delays in cycles (Table IV).
type Latencies struct {
	L1Hit      int // 3-cycle load-use
	L2Hit      int
	LLCSRAM    int // 28-cycle load-use (4-cycle data array)
	LLCNVM     int // 32-cycle load-use (8-cycle data array)
	Decompress int // +2 cycles for BDI decompression and rearrangement
	Memory     int // DDR4 round trip
}

// DefaultLatencies returns the paper's values.
func DefaultLatencies() Latencies {
	return Latencies{L1Hit: 3, L2Hit: 12, LLCSRAM: 28, LLCNVM: 32, Decompress: 2, Memory: 180}
}

// Config describes the private levels and the timing model.
type Config struct {
	L1Sets, L1Ways int // default 128x4 (32 KB)
	L2Sets, L2Ways int // default 128x16 (128 KB)
	EpochCycles    uint64
	IssueWidth     int // effective non-memory IPC (Table IV: up to 8-wide OoO)
	Lat            Latencies

	// Prefetch enables the per-core L2 stride prefetcher; degree is the
	// number of blocks fetched ahead per confirmed stream (default 1).
	Prefetch       bool
	PrefetchDegree int

	// Banks models the LLC's address-interleaved banking (Table IV: 4
	// banks behind a crossbar). Each access occupies its bank's data
	// array — SRAM reads 4 cycles, NVM reads 8, NVM writes 20 — and
	// requests to a busy bank queue, so cores interfere realistically.
	// 0 disables contention modelling.
	Banks int

	// EpochRingCapacity bounds the per-epoch sample series the system
	// retains (0 selects metrics.DefaultEpochRingCapacity).
	EpochRingCapacity int
}

// DefaultConfig returns the scaled default configuration.
func DefaultConfig() Config {
	return Config{
		L1Sets: 128, L1Ways: 4,
		L2Sets: 128, L2Ways: 16,
		EpochCycles: 2_000_000,
		IssueWidth:  4,
		Lat:         DefaultLatencies(),
		Banks:       4,
	}
}

// Program is the per-core stimulus source: the synthetic application
// models of package workload implement it directly, and package trace
// adapts recorded traces to it (the HyCSim-style trace-driven mode).
type Program interface {
	// Next produces the next memory access.
	Next() workload.Access
	// Owns reports whether a global block address belongs to the program.
	Owns(block uint64) bool
	// BumpVersion records a store to a block, changing its content.
	BumpVersion(block uint64)
	// Content returns the block's current 64-byte contents.
	Content(block uint64) []byte
	// ContentInto writes the block's current 64-byte contents into dst
	// when its capacity suffices (allocating otherwise) and returns the
	// slice; the hierarchy uses it on the per-insert hot path so content
	// generation does not allocate.
	ContentInto(dst []byte, block uint64) []byte
}

// Target is the LLC as seen by the hierarchy front-end: per-core access
// fan-out plus the epoch and metrics plumbing the system needs. Build
// wraps a *hybrid.LLC (LLCTarget); instrumenting wrappers around one
// plug in through NewWithTarget. The core index identifies the
// requesting core.
type Target interface {
	// GetS looks a block up with read intent on behalf of core.
	GetS(core int, block uint64) hybrid.AccessResult
	// GetX looks a block up with write intent on behalf of core.
	GetX(core int, block uint64) hybrid.AccessResult
	// Insert hands an L2 victim of core to the LLC.
	Insert(core int, block uint64, dirty bool, tag hybrid.BlockTag, content []byte) hybrid.InsertOutcome
	// CompressionEnabled reports whether inserts need block contents.
	CompressionEnabled() bool
	// Thresholds exposes the CPth provider (for epoch-series sampling).
	Thresholds() hybrid.ThresholdProvider
	// EndEpoch closes a set-dueling epoch.
	EndEpoch()
	// Metrics returns the registry carrying the target's llc.* (and
	// related) counters; the system registers its own on top.
	Metrics() *metrics.Registry
}

// llcTarget adapts the sequential *hybrid.LLC to the Target interface.
type llcTarget struct{ l *hybrid.LLC }

// LLCTarget wraps a sequential LLC as a Target (the default engine).
func LLCTarget(l *hybrid.LLC) Target { return llcTarget{l} }

func (t llcTarget) GetS(_ int, block uint64) hybrid.AccessResult { return t.l.GetS(block) }
func (t llcTarget) GetX(_ int, block uint64) hybrid.AccessResult { return t.l.GetX(block) }
func (t llcTarget) Insert(_ int, block uint64, dirty bool, tag hybrid.BlockTag, content []byte) hybrid.InsertOutcome {
	return t.l.Insert(block, dirty, tag, content)
}
func (t llcTarget) CompressionEnabled() bool             { return t.l.CompressionEnabled() }
func (t llcTarget) Thresholds() hybrid.ThresholdProvider { return t.l.Thresholds() }
func (t llcTarget) EndEpoch()                            { t.l.EndEpoch() }
func (t llcTarget) Metrics() *metrics.Registry           { return t.l.Metrics() }

// Core is one simulated core: a program plus private caches.
type Core struct {
	idx    int // position in System.cores; the Target fan-out key
	app    Program
	l1, l2 *cache.Cache
	pf     *Prefetcher
	cycles uint64
	insts  uint64
}

// Index returns the core's position in the system (the fan-out key passed
// to the LLC target).
func (c *Core) Index() int { return c.idx }

// Prefetcher returns the core's prefetcher (nil when disabled).
func (c *Core) Prefetcher() *Prefetcher { return c.pf }

// Cycles returns the core's local clock.
func (c *Core) Cycles() uint64 { return c.cycles }

// Insts returns the number of instructions retired.
func (c *Core) Insts() uint64 { return c.insts }

// App returns the program bound to the core.
func (c *Core) App() Program { return c.app }

// L2 exposes the core's L2 for tests.
func (c *Core) L2() *cache.Cache { return c.l2 }

// System is the full simulated machine.
type System struct {
	cfg    Config
	target Target
	// llc is the concrete LLC when the system was built around one; nil
	// when only a Target was supplied (use Target then).
	llc   *hybrid.LLC
	cores []*Core
	// compress caches target.CompressionEnabled() (constant per run).
	compress bool

	epochEnd uint64
	// Epochs counts completed set-dueling epochs.
	Epochs int

	// MemFetches counts demand fills from main memory (LLC misses);
	// memory writes are the LLC's Writebacks counter.
	MemFetches uint64

	// bankFree holds, per LLC bank, the cycle at which the bank's data
	// array becomes free again.
	bankFree []uint64
	// BankStallCycles accumulates cycles cores spent queueing for banks.
	BankStallCycles uint64

	// reg is the system-wide metrics registry (shared with the LLC and
	// its subcomponents); ring records the per-epoch series.
	reg  *metrics.Registry
	ring *metrics.EpochRing
	// probe, when set, observes every memory access the system executes
	// (the invariant checker of package check attaches here).
	probe AccessProbe
	// Epoch sampling state: counter readers for the ring's delta
	// columns, their values at the last epoch boundary, and per-core
	// insts/cycles at the last boundary for per-epoch IPC.
	epochRead   []func() uint64
	epochPrev   []uint64
	epochInsts  []uint64
	epochCycles []uint64

	// accesses counts memory accesses executed (one per step); the bench
	// harness divides wall time by its delta for ns/access.
	accesses uint64
	// contentBuf is the per-system scratch the L2-eviction path fills with
	// block contents before handing them to the LLC, so the per-insert
	// content generation allocates nothing. Owned by the system; contents
	// are only valid for the duration of one LLC insert.
	contentBuf [64]byte
	// Run window scratch, reused across calls.
	runInsts  []uint64
	runCycles []uint64
}

// EpochColumns are the per-epoch series recorded by the system, in ring
// order: the across-core mean IPC of the epoch, the LLC hit/miss and NVM
// write deltas, and the CPth chosen at the epoch boundary.
var EpochColumns = []string{"mean_ipc", "hits", "misses", "nvm_block_writes", "nvm_bytes_written", "cpth"}

// epochDeltaCounters are the registry counters sampled as deltas into the
// ring; they align with EpochColumns[1:5].
var epochDeltaCounters = []string{"llc.hits", "llc.misses", "llc.nvm.block_writes", "llc.nvm.bytes_written"}

// New builds a system running the given apps (one per core) against llc.
func New(cfg Config, llc *hybrid.LLC, apps []*workload.App) *System {
	progs := make([]Program, len(apps))
	for i, a := range apps {
		progs[i] = a
	}
	return NewFromPrograms(cfg, llc, progs)
}

// NewFromPrograms builds a system from arbitrary per-core programs (e.g.
// trace replays).
func NewFromPrograms(cfg Config, llc *hybrid.LLC, apps []Program) *System {
	s := NewWithTarget(cfg, LLCTarget(llc), apps)
	s.llc = llc
	return s
}

// NewWithTarget builds a system running the programs against an arbitrary
// LLC target (LLCTarget, or an instrumenting wrapper around an LLC).
func NewWithTarget(cfg Config, t Target, apps []Program) *System {
	if len(apps) == 0 {
		panic("hier: no applications")
	}
	if cfg.IssueWidth <= 0 {
		cfg.IssueWidth = 4
	}
	if cfg.EpochCycles == 0 {
		cfg.EpochCycles = 2_000_000
	}
	s := &System{cfg: cfg, target: t, epochEnd: cfg.EpochCycles, compress: t.CompressionEnabled()}
	if cfg.Banks > 0 {
		s.bankFree = make([]uint64, cfg.Banks)
	}
	for i, app := range apps {
		c := &Core{
			idx: i,
			app: app,
			l1:  cache.New(cfg.L1Sets, cfg.L1Ways),
			l2:  cache.New(cfg.L2Sets, cfg.L2Ways),
		}
		if cfg.Prefetch {
			c.pf = newPrefetcher(64, cfg.PrefetchDegree)
		}
		s.cores = append(s.cores, c)
	}
	s.registerMetrics(t.Metrics(), cfg.EpochRingCapacity)
	return s
}

// registerMetrics attaches the hierarchy's counters to the LLC's registry
// and sets up the per-epoch sample ring.
func (s *System) registerMetrics(reg *metrics.Registry, ringCap int) {
	s.reg = reg
	reg.Counter("sys.mem_fetches", &s.MemFetches)
	reg.Counter("sys.bank_stall_cycles", &s.BankStallCycles)
	reg.Counter("sys.accesses", &s.accesses)
	reg.CounterFunc("sys.epochs", func() uint64 { return uint64(s.Epochs) })
	for i, c := range s.cores {
		c := c
		prefix := fmt.Sprintf("core%d", i)
		reg.Counter(prefix+".insts", &c.insts)
		reg.Counter(prefix+".cycles", &c.cycles)
		reg.GaugeFunc(prefix+".ipc", func() float64 {
			if c.cycles == 0 {
				return 0
			}
			return float64(c.insts) / float64(c.cycles)
		})
	}

	s.ring = metrics.NewEpochRing(ringCap, EpochColumns...)
	s.epochRead = make([]func() uint64, len(epochDeltaCounters))
	s.epochPrev = make([]uint64, len(epochDeltaCounters))
	for i, name := range epochDeltaCounters {
		read, ok := reg.CounterReader(name)
		if !ok {
			panic("hier: registry is missing " + name)
		}
		s.epochRead[i] = read
	}
	s.epochInsts = make([]uint64, len(s.cores))
	s.epochCycles = make([]uint64, len(s.cores))
}

// Metrics returns the system-wide metrics registry.
func (s *System) Metrics() *metrics.Registry { return s.reg }

// EpochRing returns the ring holding the per-epoch series (EpochColumns).
func (s *System) EpochRing() *metrics.EpochRing { return s.ring }

// EpochSamples returns the retained per-epoch samples, oldest first.
func (s *System) EpochSamples() []metrics.Sample { return s.ring.Samples() }

// recordEpoch samples the just-closed epoch into the ring: per-epoch IPC
// from the cores' deltas, the LLC counter deltas since the previous
// boundary, and the CPth selected for the next epoch.
func (s *System) recordEpoch(cycle uint64) {
	var ipcSum float64
	for i, c := range s.cores {
		di := c.insts - s.epochInsts[i]
		dc := c.cycles - s.epochCycles[i]
		if dc > 0 {
			ipcSum += float64(di) / float64(dc)
		}
		s.epochInsts[i] = c.insts
		s.epochCycles[i] = c.cycles
	}
	var deltas [4]float64
	for i, read := range s.epochRead {
		v := read()
		deltas[i] = float64(v - s.epochPrev[i])
		s.epochPrev[i] = v
	}
	cpth := 0
	if w, ok := s.target.Thresholds().(interface{ Winner() int }); ok {
		cpth = w.Winner()
	} else {
		cpth = s.target.Thresholds().CPthFor(0)
	}
	s.ring.Record(s.Epochs-1, cycle, ipcSum/float64(len(s.cores)),
		deltas[0], deltas[1], deltas[2], deltas[3], float64(cpth))
}

// AccessProbe observes the simulation at access granularity: OnAccess is
// called once after every memory access any core executes, with the whole
// hierarchy in a consistent state. The runtime invariant checker
// (internal/check) is the canonical implementation.
type AccessProbe interface {
	OnAccess()
}

// SetAccessProbe attaches (or, with nil, detaches) the system's access
// probe. One probe is supported; attaching replaces the previous one.
func (s *System) SetAccessProbe(p AccessProbe) { s.probe = p }

// AccessProbe returns the currently attached probe (nil when none).
func (s *System) AccessProbe() AccessProbe { return s.probe }

// LLC returns the shared last-level cache, or nil when the system was
// built with NewWithTarget (use Target then).
func (s *System) LLC() *hybrid.LLC { return s.llc }

// Target returns the LLC target the front-end issues accesses to.
func (s *System) Target() Target { return s.target }

// Cores returns the simulated cores.
func (s *System) Cores() []*Core { return s.cores }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Now returns the global wall-clock: the minimum core cycle count, i.e.
// the time up to which all cores have definitely progressed.
func (s *System) Now() uint64 {
	min := s.cores[0].cycles
	for _, c := range s.cores[1:] {
		if c.cycles < min {
			min = c.cycles
		}
	}
	return min
}

// RunStats summarises one Run window. The LLC and MemFetches fields are
// derived from the metrics-registry delta of the window; Metrics carries
// the full delta snapshot for callers that want every counter.
type RunStats struct {
	Cycles     uint64    // wall-clock cycles advanced
	Insts      []uint64  // per-core instructions retired in the window
	IPC        []float64 // per-core IPC in the window
	MeanIPC    float64   // arithmetic mean across cores (paper's metric)
	LLC        hybrid.Stats
	MemFetches uint64
	Metrics    metrics.Snapshot // window delta of every registered metric
}

// Run advances the system by the given number of wall-clock cycles,
// interleaving cores in global cycle order, and returns the statistics of
// the window. Set-dueling epochs are closed as the clock crosses each
// EpochCycles boundary.
func (s *System) Run(cycles uint64) RunStats {
	start := s.Now()
	target := start + cycles
	if s.runInsts == nil {
		s.runInsts = make([]uint64, len(s.cores))
		s.runCycles = make([]uint64, len(s.cores))
	}
	startInsts, startCycles := s.runInsts, s.runCycles
	for i, c := range s.cores {
		startInsts[i] = c.insts
		startCycles[i] = c.cycles
	}
	before := s.reg.Snapshot()

	for {
		// Advance the core that is furthest behind.
		core := s.cores[0]
		for _, c := range s.cores[1:] {
			if c.cycles < core.cycles {
				core = c
			}
		}
		if core.cycles >= target {
			break
		}
		s.step(core)
		s.closeEpochs()
	}

	delta := s.reg.Snapshot().Delta(before)
	out := RunStats{
		Cycles:     s.Now() - start,
		Insts:      make([]uint64, len(s.cores)),
		IPC:        make([]float64, len(s.cores)),
		MemFetches: delta.Counter("sys.mem_fetches"),
		LLC:        hybrid.StatsFromSnapshot(delta),
		Metrics:    delta,
	}
	var sum float64
	for i, c := range s.cores {
		out.Insts[i] = c.insts - startInsts[i]
		d := c.cycles - startCycles[i]
		if d > 0 {
			out.IPC[i] = float64(out.Insts[i]) / float64(d)
		}
		sum += out.IPC[i]
	}
	out.MeanIPC = sum / float64(len(s.cores))
	return out
}

// closeEpochs closes set-dueling epochs as the global clock crosses
// EpochCycles boundaries, recording one epoch sample per boundary.
func (s *System) closeEpochs() {
	for now := s.Now(); now >= s.epochEnd; {
		s.target.EndEpoch()
		s.Epochs++
		s.recordEpoch(s.epochEnd)
		s.epochEnd += s.cfg.EpochCycles
	}
}

// Accesses returns the total number of memory accesses executed.
func (s *System) Accesses() uint64 { return s.accesses }

// StepAccesses executes exactly n memory accesses, advancing the
// furthest-behind core each time, without opening a measurement window —
// no registry snapshots are taken, so the steady-state call is
// allocation-free. Epochs still close as the clock crosses boundaries.
// The alloc-regression tests use it to pin the engines' hot paths.
func (s *System) StepAccesses(n int) {
	for k := 0; k < n; k++ {
		core := s.cores[0]
		for _, c := range s.cores[1:] {
			if c.cycles < core.cycles {
				core = c
			}
		}
		s.step(core)
		s.closeEpochs()
	}
}

// step executes one memory access on a core.
func (s *System) step(c *Core) {
	if s.probe != nil {
		defer s.probe.OnAccess()
	}
	s.accesses++
	acc := c.app.Next()
	lat := &s.cfg.Lat
	c.insts += uint64(acc.Gap) + 1
	c.cycles += uint64((acc.Gap + s.cfg.IssueWidth - 1) / s.cfg.IssueWidth)

	if acc.Write {
		c.app.BumpVersion(acc.Block)
	}

	// L1.
	if l := c.l1.Access(acc.Block, acc.Write); l != nil {
		if acc.Write {
			c.cycles++
			s.clearLB(c, acc.Block)
		} else {
			c.cycles += uint64(lat.L1Hit)
		}
		return
	}

	// L2.
	if l := c.l2.Access(acc.Block, false); l != nil {
		tag := hybrid.UnpackTag(l.Flags)
		if c.pf != nil && tag.Prefetched {
			c.pf.Useful++
			tag.Prefetched = false
			l.Flags = tag.Pack()
		}
		if acc.Write {
			c.cycles++
			// The store modifies the block: it is no longer a loop-block.
			tag = hybrid.UnpackTag(l.Flags)
			tag.LB = false
			l.Flags = tag.Pack()
		} else {
			c.cycles += uint64(lat.L2Hit)
		}
		s.fillL1(c, acc.Block, acc.Write)
		if c.pf != nil {
			s.prefetch(c, c.pf.observe(acc.Block))
		}
		return
	}

	// LLC (GetX for fetches with write permission, GetS otherwise).
	var res hybrid.AccessResult
	if acc.Write {
		res = s.target.GetX(c.idx, acc.Block)
	} else {
		res = s.target.GetS(c.idx, acc.Block)
	}
	switch {
	case res.Hit && res.Part == hybrid.SRAM:
		c.cycles += uint64(lat.LLCSRAM)
		c.cycles += s.bankAcquire(acc.Block, c.cycles, bankOccSRAMRead)
	case res.Hit:
		c.cycles += uint64(lat.LLCNVM)
		if s.compress {
			c.cycles += uint64(lat.Decompress)
		}
		c.cycles += s.bankAcquire(acc.Block, c.cycles, bankOccNVMRead)
	default:
		c.cycles += uint64(lat.Memory)
		s.MemFetches++
	}

	dirty := res.Dirty // GetX transfers dirty ownership to L2
	s.fillL2(c, acc.Block, dirty, res.Tag.Pack())
	s.fillL1(c, acc.Block, acc.Write)
	if c.pf != nil {
		s.prefetch(c, c.pf.observe(acc.Block))
	}
}

// fillL2 inserts a block into a core's L2, sending the L2 victim to the
// LLC per the non-inclusive flow.
func (s *System) fillL2(c *Core, block uint64, dirty bool, flags uint8) {
	ev := c.l2.Insert(block, dirty, flags)
	if !ev.Valid {
		return
	}
	// Maintain L1 inclusion: the victim leaves L1 too, folding its
	// dirtiness into the L2 line being evicted.
	if l1old, ok := c.l1.Invalidate(ev.Block); ok && l1old.Dirty {
		ev.Dirty = true
	}
	tag := hybrid.UnpackTag(ev.Flags)
	if ev.Dirty {
		tag.LB = false // a modified block cannot be a loop-block
	}
	var content []byte
	if s.compress {
		content = s.appOf(ev.Block).ContentInto(s.contentBuf[:], ev.Block)
	}
	out := s.target.Insert(c.idx, ev.Block, ev.Dirty, tag, content)
	if occ := bankWriteOcc(out); occ > 0 {
		// The write itself is off the core's critical path (posted by the
		// L2 eviction), but it occupies the bank and delays later reads.
		s.bankAcquire(ev.Block, c.cycles, occ)
	}
}

// fillL1 inserts a block into a core's L1, folding dirty victims back into
// their (inclusive) L2 lines.
func (s *System) fillL1(c *Core, block uint64, dirty bool) {
	ev := c.l1.Insert(block, dirty, 0)
	if ev.Valid && ev.Dirty {
		if w, ok := c.l2.Lookup(ev.Block); ok {
			l := c.l2.Line(c.l2.SetOf(ev.Block), w)
			l.Dirty = true
			tag := hybrid.UnpackTag(l.Flags)
			tag.LB = false
			l.Flags = tag.Pack()
		}
	}
	if dirty {
		s.clearLB(c, block)
	}
}

// clearLB clears the loop-block tag of a block in L2 after a store.
func (s *System) clearLB(c *Core, block uint64) {
	if w, ok := c.l2.Lookup(block); ok {
		l := c.l2.Line(c.l2.SetOf(block), w)
		tag := hybrid.UnpackTag(l.Flags)
		tag.LB = false
		l.Flags = tag.Pack()
	}
}

// appOf resolves the owner of a global block address.
func (s *System) appOf(block uint64) Program {
	idx := int(block/workload.AppSpacing) - 1
	if idx >= 0 && idx < len(s.cores) && s.cores[idx].app.Owns(block) {
		return s.cores[idx].app
	}
	for _, c := range s.cores {
		if c.app.Owns(block) {
			return c.app
		}
	}
	panic(fmt.Sprintf("hier: no owner for block %#x", block))
}

// Bank data-array occupancies in cycles (Table IV: 4-cycle SRAM D-array,
// 8-cycle NVM D-array, 20-cycle NVM write).
const (
	bankOccSRAMRead  = 4
	bankOccNVMRead   = 8
	bankOccSRAMWrite = 4
	bankOccNVMWrite  = 20
)

// bankAcquire queues an access to the block's bank at time t, occupying
// the bank for occ cycles. It returns the queueing delay the requester
// observes before its access starts.
func (s *System) bankAcquire(block uint64, t uint64, occ int) uint64 {
	if s.bankFree == nil {
		return 0
	}
	b := block % uint64(len(s.bankFree))
	start := t
	var wait uint64
	if s.bankFree[b] > t {
		wait = s.bankFree[b] - t
		start = s.bankFree[b]
		s.BankStallCycles += wait
	}
	s.bankFree[b] = start + uint64(occ)
	return wait
}

// bankWriteOcc maps an insert outcome to the data-array occupancy.
func bankWriteOcc(out hybrid.InsertOutcome) int {
	if !out.Wrote {
		return 0
	}
	if out.Part == hybrid.NVM {
		return bankOccNVMWrite
	}
	return bankOccSRAMWrite
}
