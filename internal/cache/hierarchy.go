package cache

import (
	"fmt"

	"repro/internal/mem"
)

// Level identifies which level of the hierarchy serviced an access; the
// simulator attributes stall cycles to it.
type Level uint8

// Service levels.
const (
	// LvlL1 is an L1 hit (or stream-buffer hit): no meaningful stall.
	LvlL1 Level = iota
	// LvlL2 is an on-chip hit beyond L1: a shared-L2 hit or a fast
	// L1-to-L1 transfer. Stalls here are the paper's "L2 hit stalls".
	LvlL2
	// LvlMem is an off-chip memory access.
	LvlMem
	// LvlCoh is a long-latency coherence transfer from a remote node's
	// private cache (SMP configurations only).
	LvlCoh
)

func (l Level) String() string {
	switch l {
	case LvlL1:
		return "L1"
	case LvlL2:
		return "L2"
	case LvlMem:
		return "mem"
	case LvlCoh:
		return "coherence"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// Config describes a memory hierarchy. The same hierarchy serves both
// camps, per the paper's methodology.
type Config struct {
	Cores int

	L1ISize, L1DSize int // per-core L1 capacities
	L1Assoc          int
	L1Lat            int // L1 hit latency, cycles

	L2Size  int // total L2 capacity (shared) or per-node (private)
	L2Assoc int
	L2Lat   int // L2 hit latency, cycles

	SharedL2 bool // true: one shared L2 (CMP); false: private L2 per core (SMP)

	MemLat    int // off-chip access latency
	CohLat    int // remote-dirty coherence transfer latency (SMP)
	L1XferLat int // on-chip L1-to-L1 dirty transfer latency (CMP)

	L2Ports   int // concurrent L2 accesses; misses queue beyond this
	L2PortOcc int // cycles a port stays busy per access

	StreamBuf      bool // instruction stream buffers at L1I
	StreamBufDepth int  // prefetch depth in lines
}

// WithDefaults returns the configuration with zero fields replaced by the
// defaults NewHierarchy would apply.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// withDefaults fills in the L1 and latency parameters shared by all
// experiments in the paper's setup.
func (c Config) withDefaults() Config {
	if c.L1ISize == 0 {
		c.L1ISize = 64 << 10
	}
	if c.L1DSize == 0 {
		c.L1DSize = 64 << 10
	}
	if c.L1Assoc == 0 {
		c.L1Assoc = 2
	}
	if c.L1Lat == 0 {
		c.L1Lat = 2
	}
	if c.L2Assoc == 0 {
		c.L2Assoc = 8
	}
	if c.MemLat == 0 {
		c.MemLat = 400
	}
	if c.CohLat == 0 {
		c.CohLat = 550
	}
	if c.L1XferLat == 0 {
		c.L1XferLat = c.L2Lat + 2
	}
	if c.L2Ports == 0 {
		c.L2Ports = 2
	}
	if c.L2PortOcc == 0 {
		c.L2PortOcc = 2
	}
	if c.StreamBufDepth == 0 {
		c.StreamBufDepth = 4
	}
	return c
}

// Stats aggregates hierarchy event counts for one simulation.
type Stats struct {
	L1DHits, L1DMisses uint64
	L1IHits, L1IMisses uint64
	StreamBufHits      uint64
	L2Hits, L2Misses   uint64
	L1Transfers        uint64 // CMP dirty L1-to-L1
	CohTransfers       uint64 // SMP remote-dirty
	MemAccesses        uint64
	Upgrades           uint64 // S->M invalidation rounds
	PortQueueCycles    uint64 // total cycles spent queued on L2 ports
	BackInvalidations  uint64 // inclusive-L2 evictions invalidating L1 lines
	Prefetches         uint64 // software prefetches that started a fill
	PrefetchHits       uint64 // demand loads fully covered by a prefetch
	PrefetchLate       uint64 // demand loads that caught their prefetch in flight
}

// L2MissRate returns misses / (hits+misses), or 0 when idle.
func (s *Stats) L2MissRate() float64 {
	t := s.L2Hits + s.L2Misses
	if t == 0 {
		return 0
	}
	return float64(s.L2Misses) / float64(t)
}

// Result describes how one access was serviced.
type Result struct {
	Level  Level
	DoneAt uint64 // cycle at which the data is available
}

// pfFill is one software-prefetched line still in flight: the demand load
// that catches it pays only the remaining latency, attributed to the level
// the fill is coming from.
type pfFill struct {
	doneAt uint64
	level  Level
}

// Hierarchy is the full simulated memory system.
type Hierarchy struct {
	cfg   Config
	l1i   []*Cache
	l1d   []*Cache
	l2    []*Cache // one entry when shared; per-core when private
	sb    []*streamBuffer
	ports []uint64 // next-free cycle per L2 port (shared-L2 contention)
	pf    []map[mem.Addr]pfFill
	pfN   []int // entries of pf per core, read without touching the map
	// filled[core] is set once core's L1I or L1D has held a line. Under a
	// shared L2 the loops over peer L1s skip the cores still unset: a
	// lookup in an empty cache finds nothing and changes nothing.
	filled []bool
	// onLoss, when set, hears of every line a core's L1 loses to
	// coherence or inclusion (OnL1Loss).
	onLoss func(core int, line mem.Addr, loss Loss, by int)
	Stats  Stats
}

// Loss is what a core's L1 lost of a line.
type Loss uint8

// The losses OnL1Loss reports.
const (
	// LostL1I: the line left the core's L1I.
	LostL1I Loss = iota
	// LostL1D: the line left the core's L1D.
	LostL1D
	// LostModified: the line stays in the core's L1D but is no longer
	// Modified, so a store to it is no longer a hit that owes nothing.
	LostModified
)

func (l Loss) String() string {
	switch l {
	case LostL1I:
		return "lost-l1i"
	case LostL1D:
		return "lost-l1d"
	case LostModified:
		return "lost-modified"
	}
	return fmt.Sprintf("Loss(%d)", uint8(l))
}

// NewHierarchy builds a hierarchy from cfg (zero fields take defaults).
func NewHierarchy(cfg Config) *Hierarchy {
	cfg = cfg.withDefaults()
	if cfg.Cores <= 0 {
		panic("cache: hierarchy needs at least one core")
	}
	if cfg.L2Size <= 0 || cfg.L2Lat <= 0 {
		panic("cache: hierarchy needs L2Size and L2Lat")
	}
	h := &Hierarchy{cfg: cfg}
	for i := 0; i < cfg.Cores; i++ {
		h.l1i = append(h.l1i, New(cfg.L1ISize, cfg.L1Assoc))
		h.l1d = append(h.l1d, New(cfg.L1DSize, cfg.L1Assoc))
		h.sb = append(h.sb, newStreamBuffer(cfg.StreamBufDepth))
		h.pf = append(h.pf, make(map[mem.Addr]pfFill))
	}
	h.pfN = make([]int, cfg.Cores)
	h.filled = make([]bool, cfg.Cores)
	if cfg.SharedL2 {
		h.l2 = []*Cache{New(cfg.L2Size, cfg.L2Assoc)}
	} else {
		for i := 0; i < cfg.Cores; i++ {
			h.l2 = append(h.l2, New(cfg.L2Size, cfg.L2Assoc))
		}
	}
	h.ports = make([]uint64, cfg.L2Ports)
	return h
}

// Config returns the (defaulted) configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Reset restores the state NewHierarchy(h.Config()) produces — every cache
// empty, stream buffers and in-flight prefetches gone, ports free, counters
// zero — so a simulation on a reset hierarchy is the simulation on a new
// one, without allocating the arrays again (10 MB of ways at a 26 MB L2).
func (h *Hierarchy) Reset() {
	for _, cs := range [][]*Cache{h.l1i, h.l1d, h.l2} {
		for _, c := range cs {
			c.Reset()
		}
	}
	for i := range h.sb {
		h.sb[i].lines = h.sb[i].lines[:0]
		clear(h.pf[i])
	}
	clear(h.pfN)
	clear(h.filled)
	clear(h.ports)
	h.onLoss = nil
	h.Stats = Stats{}
}

// OnL1Loss installs f (nil removes it), which is called each time core's
// L1I or L1D loses line, or its L1D copy of line leaves Modified, because
// of an access by core by: a peer's store invalidating the copy, a peer's
// read of a Modified copy downgrading it to Shared, or an L2 eviction
// back-invalidating it (then by may be core itself). A line a core's own
// L1 fill replaces is not reported. The simulator takes L1 hits on most
// recently used lines ahead of time, and these are the only ways a hit so
// taken can stop being one before its cycle comes.
func (h *Hierarchy) OnL1Loss(f func(core int, line mem.Addr, loss Loss, by int)) {
	h.onLoss = f
}

// lost reports a loss to the OnL1Loss hook.
func (h *Hierarchy) lost(core int, line mem.Addr, loss Loss, by int) {
	if h.onLoss != nil {
		h.onLoss(core, line, loss, by)
	}
}

// shareL1D makes core's L1D copy of line, if any, Shared on behalf of
// core by's read, reporting a Modified copy's downgrade.
func (h *Hierarchy) shareL1D(core int, line mem.Addr, by int) {
	was := h.l1d[core].Probe(line)
	if was == Invalid {
		return
	}
	h.l1d[core].SetState(line, Shared)
	if was == Modified {
		h.lost(core, line, LostModified, by)
	}
}

// invalidateL1D removes core's L1D copy of line on behalf of core by's
// store, reporting the loss.
func (h *Hierarchy) invalidateL1D(core int, line mem.Addr, by int) {
	if h.l1d[core].Invalidate(line) != Invalid {
		h.lost(core, line, LostL1D, by)
	}
}

func (h *Hierarchy) l2of(core int) *Cache {
	if h.cfg.SharedL2 {
		return h.l2[0]
	}
	return h.l2[core]
}

// acquirePort models finite L2 bandwidth: the access starts when a port
// frees up; the returned value is the queueing delay in cycles.
func (h *Hierarchy) acquirePort(now uint64) uint64 {
	best := 0
	for i := 1; i < len(h.ports); i++ {
		if h.ports[i] < h.ports[best] {
			best = i
		}
	}
	start := now
	if h.ports[best] > start {
		start = h.ports[best]
	}
	h.ports[best] = start + uint64(h.cfg.L2PortOcc)
	delay := start - now
	h.Stats.PortQueueCycles += delay
	return delay
}

// insertL2 places a line in core's L2, maintaining inclusion: a victim
// evicted from an L2 back-invalidates any L1 copies above it.
func (h *Hierarchy) insertL2(core int, line mem.Addr, st State) {
	v, evicted := h.l2of(core).Insert(line, st)
	if !evicted {
		return
	}
	if h.cfg.SharedL2 {
		for i := range h.l1d {
			if h.filled[i] {
				h.backInvalidate(i, v.Line, core)
			}
		}
	} else {
		h.backInvalidate(core, v.Line, core)
	}
}

// backInvalidate removes line, evicted from the L2 by core by's access,
// from core's L1s.
func (h *Hierarchy) backInvalidate(core int, line mem.Addr, by int) {
	if h.l1d[core].Invalidate(line) != Invalid {
		h.Stats.BackInvalidations++
		h.lost(core, line, LostL1D, by)
	}
	if h.l1i[core].Invalidate(line) != Invalid {
		h.Stats.BackInvalidations++
		h.lost(core, line, LostL1I, by)
	}
}

// insertL1D fills a line into core's L1D; a Modified victim is written
// back to the L2 (state only; timing of write-backs is hidden by write
// buffers, as in most timing models of this class).
func (h *Hierarchy) insertL1D(core int, line mem.Addr, st State) {
	h.filled[core] = true
	v, evicted := h.l1d[core].Insert(line, st)
	if evicted && v.State == Modified {
		h.l2of(core).SetState(v.Line, Modified)
	}
}

// insertL1I fills an instruction line into core's L1I; its victim, never
// dirty, is dropped.
func (h *Hierarchy) insertL1I(core int, line mem.Addr) {
	h.filled[core] = true
	h.l1i[core].Insert(line, Shared)
}

// The Hit methods resolve the common case of Read, Write and Fetch — the
// line is the most recently used one of its set in core's L1, which Touch
// finds without moving anything — in a call the compiler inlines. Each
// counts the hit exactly as its full method does and reports true; for
// every other access it changes nothing and reports false, and the caller
// makes the full call, which begins with the same check. A caller that
// gets true owes nothing: the access completes at now plus the L1 latency
// (plus one cycle for a fetch), and no other state moves.

// HitRead is Read's L1 hit on the most recently used way, when core has
// no prefetch in flight (a demand load may be catching one).
func (h *Hierarchy) HitRead(core int, a mem.Addr) bool {
	if !h.ReadIsMRU(core, a) {
		return false
	}
	h.Stats.L1DHits++
	return true
}

// HitWrite is Write's L1 hit on a most recently used way that is already
// Modified.
func (h *Hierarchy) HitWrite(core int, a mem.Addr) bool {
	if !h.WriteIsMRU(core, a) {
		return false
	}
	h.Stats.L1DHits++
	return true
}

// HitFetch is Fetch's L1I hit on the most recently used way.
func (h *Hierarchy) HitFetch(core int, a mem.Addr) bool {
	if !h.FetchIsMRU(core, a) {
		return false
	}
	h.Stats.L1IHits++
	return true
}

// FetchIsMRU, ReadIsMRU and WriteIsMRU report whether HitFetch, HitRead
// and HitWrite(core, a) would hit, counting nothing. A caller that goes on
// to make the access without calling the Hit method adds the hit to
// Stats.L1IHits or Stats.L1DHits itself.
func (h *Hierarchy) FetchIsMRU(core int, a mem.Addr) bool {
	return h.l1i[core].mru(a.Line()) != Invalid
}

// ReadIsMRU: see FetchIsMRU.
func (h *Hierarchy) ReadIsMRU(core int, a mem.Addr) bool {
	return h.pfN[core] == 0 && h.l1d[core].mru(a.Line()) != Invalid
}

// WriteIsMRU: see FetchIsMRU.
func (h *Hierarchy) WriteIsMRU(core int, a mem.Addr) bool {
	return h.l1d[core].mru(a.Line()) == Modified
}

// Read performs a data load by core at address a, returning the servicing
// level and completion time.
func (h *Hierarchy) Read(core int, a mem.Addr, now uint64) Result {
	if h.HitRead(core, a) {
		return Result{LvlL1, now + uint64(h.cfg.L1Lat)}
	}
	line := a.Line()
	if h.pfN[core] != 0 {
		m := h.pf[core]
		if f, ok := m[line]; ok {
			delete(m, line)
			h.pfN[core]--
			if f.doneAt > now {
				// The demand load caught its prefetch in flight: it pays
				// only the remaining latency, still attributed to the
				// level the fill is coming from.
				h.Stats.L1DHits++
				h.Stats.PrefetchLate++
				return Result{f.level, f.doneAt}
			}
			h.Stats.PrefetchHits++
			// Completed fills fall through to the (now resident) L1 probe.
		}
	}
	if h.l1d[core].Touch(line) != Invalid {
		h.Stats.L1DHits++
		return Result{LvlL1, now + uint64(h.cfg.L1Lat)}
	}
	h.Stats.L1DMisses++
	if h.cfg.SharedL2 {
		return h.readCMP(core, line, now)
	}
	return h.readSMP(core, line, now)
}

func (h *Hierarchy) readCMP(core int, line mem.Addr, now uint64) Result {
	// Dirty in a peer L1? Fast on-chip transfer; both end Shared and the
	// shared L2 receives the up-to-date state. Clean Exclusive peers
	// downgrade to Shared.
	for i := range h.l1d {
		if i == core || !h.filled[i] {
			continue
		}
		switch h.l1d[i].Probe(line) {
		case Modified:
			h.l1d[i].SetState(line, Shared)
			h.lost(i, line, LostModified, core)
			h.l2[0].SetState(line, Modified)
			h.insertL1D(core, line, Shared)
			h.Stats.L1Transfers++
			h.Stats.L2Hits++ // accounted with L2 hits, as in the paper
			return Result{LvlL2, now + uint64(h.cfg.L1XferLat)}
		case Exclusive:
			h.l1d[i].SetState(line, Shared)
		}
	}
	delay := h.acquirePort(now)
	if h.l2[0].Touch(line) != Invalid {
		h.Stats.L2Hits++
		h.insertL1D(core, line, Shared)
		return Result{LvlL2, now + delay + uint64(h.cfg.L2Lat)}
	}
	h.Stats.L2Misses++
	h.Stats.MemAccesses++
	h.insertL2(core, line, Exclusive)
	h.insertL1D(core, line, Exclusive)
	return Result{LvlMem, now + delay + uint64(h.cfg.MemLat)}
}

func (h *Hierarchy) readSMP(core int, line mem.Addr, now uint64) Result {
	if h.l2[core].Touch(line) != Invalid {
		h.insertL1D(core, line, Shared)
		h.Stats.L2Hits++
		return Result{LvlL2, now + uint64(h.cfg.L2Lat)}
	}
	h.Stats.L2Misses++
	// Snoop remote nodes: a dirty copy forces a long coherence transfer;
	// clean Exclusive copies downgrade to Shared.
	for i := range h.l2 {
		if i == core {
			continue
		}
		switch h.l2[i].Probe(line) {
		case Modified:
			h.l2[i].SetState(line, Shared)
			h.shareL1D(i, line, core)
			h.insertL2(core, line, Shared)
			h.insertL1D(core, line, Shared)
			h.Stats.CohTransfers++
			return Result{LvlCoh, now + uint64(h.cfg.CohLat)}
		case Exclusive:
			h.l2[i].SetState(line, Shared)
			h.shareL1D(i, line, core)
		}
	}
	h.Stats.MemAccesses++
	h.insertL2(core, line, Exclusive)
	h.insertL1D(core, line, Exclusive)
	return Result{LvlMem, now + uint64(h.cfg.MemLat)}
}

// Prefetch starts a non-binding software prefetch of the line holding a.
// An L1-resident line is a no-op (which makes prefetching already-hot data
// cycle-free); otherwise the fill installs immediately and its completion
// time is tracked so a demand Read that arrives early pays the remaining
// latency. Prefetches consume L2 port bandwidth like any other access but
// never count as demand misses.
func (h *Hierarchy) Prefetch(core int, a mem.Addr, now uint64) {
	line := a.Line()
	if h.l1d[core].Touch(line) != Invalid {
		return
	}
	if _, ok := h.pf[core][line]; ok {
		return // already in flight
	}
	h.Stats.Prefetches++
	var f pfFill
	if h.cfg.SharedL2 {
		f = h.prefetchCMP(core, line, now)
	} else {
		f = h.prefetchSMP(core, line, now)
	}
	h.pf[core][line] = f
	h.pfN[core]++
}

func (h *Hierarchy) prefetchCMP(core int, line mem.Addr, now uint64) pfFill {
	for i := range h.l1d {
		if i == core || !h.filled[i] {
			continue
		}
		switch h.l1d[i].Probe(line) {
		case Modified:
			h.l1d[i].SetState(line, Shared)
			h.lost(i, line, LostModified, core)
			h.l2[0].SetState(line, Modified)
			h.insertL1D(core, line, Shared)
			return pfFill{now + uint64(h.cfg.L1XferLat), LvlL2}
		case Exclusive:
			h.l1d[i].SetState(line, Shared)
		}
	}
	delay := h.acquirePort(now)
	if h.l2[0].Touch(line) != Invalid {
		h.insertL1D(core, line, Shared)
		return pfFill{now + delay + uint64(h.cfg.L2Lat), LvlL2}
	}
	h.insertL2(core, line, Exclusive)
	h.insertL1D(core, line, Exclusive)
	return pfFill{now + delay + uint64(h.cfg.MemLat), LvlMem}
}

func (h *Hierarchy) prefetchSMP(core int, line mem.Addr, now uint64) pfFill {
	if h.l2[core].Touch(line) != Invalid {
		h.insertL1D(core, line, Shared)
		return pfFill{now + uint64(h.cfg.L2Lat), LvlL2}
	}
	for i := range h.l2 {
		if i == core {
			continue
		}
		switch h.l2[i].Probe(line) {
		case Modified:
			h.l2[i].SetState(line, Shared)
			h.shareL1D(i, line, core)
			h.insertL2(core, line, Shared)
			h.insertL1D(core, line, Shared)
			return pfFill{now + uint64(h.cfg.CohLat), LvlCoh}
		case Exclusive:
			h.l2[i].SetState(line, Shared)
			h.shareL1D(i, line, core)
		}
	}
	h.insertL2(core, line, Exclusive)
	h.insertL1D(core, line, Exclusive)
	return pfFill{now + uint64(h.cfg.MemLat), LvlMem}
}

// Write performs a data store by core at address a. Stores retire through
// write buffers, so the caller typically does not stall on the returned
// latency, but state transitions and port pressure are modelled.
func (h *Hierarchy) Write(core int, a mem.Addr, now uint64) Result {
	if h.HitWrite(core, a) {
		return Result{LvlL1, now + uint64(h.cfg.L1Lat)}
	}
	line := a.Line()
	switch h.l1d[core].Touch(line) {
	case Modified:
		h.Stats.L1DHits++
		return Result{LvlL1, now + uint64(h.cfg.L1Lat)}
	case Exclusive:
		h.Stats.L1DHits++
		h.l1d[core].SetState(line, Modified)
		h.l2of(core).SetState(line, Modified)
		return Result{LvlL1, now + uint64(h.cfg.L1Lat)}
	case Shared:
		// Upgrade: invalidate peers.
		h.Stats.L1DHits++
		h.Stats.Upgrades++
		lat := h.invalidatePeers(core, line)
		h.l1d[core].SetState(line, Modified)
		h.l2of(core).SetState(line, Modified)
		return Result{LvlL1, now + lat}
	}
	h.Stats.L1DMisses++
	// Read-for-ownership, then mark Modified.
	var r Result
	if h.cfg.SharedL2 {
		r = h.readCMP(core, line, now)
	} else {
		r = h.readSMP(core, line, now)
	}
	h.invalidatePeers(core, line)
	h.l1d[core].SetState(line, Modified)
	h.l2of(core).SetState(line, Modified)
	return r
}

// invalidatePeers removes all peer copies of line and returns the latency
// of the invalidation round.
func (h *Hierarchy) invalidatePeers(core int, line mem.Addr) uint64 {
	if h.cfg.SharedL2 {
		for i := range h.l1d {
			if i != core && h.filled[i] {
				h.invalidateL1D(i, line, core)
			}
		}
		return uint64(h.cfg.L1Lat)
	}
	lat := uint64(h.cfg.L1Lat)
	for i := range h.l2 {
		if i == core {
			continue
		}
		if h.l2[i].Invalidate(line) != Invalid {
			h.invalidateL1D(i, line, core)
			// Off-chip invalidation round trip.
			lat = uint64(h.cfg.CohLat) / 2
		}
	}
	return lat
}

// Fetch performs an instruction fetch by core at address a.
func (h *Hierarchy) Fetch(core int, a mem.Addr, now uint64) Result {
	if h.HitFetch(core, a) {
		return Result{LvlL1, now + 1}
	}
	line := a.Line()
	if h.l1i[core].Touch(line) != Invalid {
		h.Stats.L1IHits++
		return Result{LvlL1, now + 1}
	}
	h.Stats.L1IMisses++
	if h.cfg.StreamBuf && h.sb[core].hit(line) {
		// The buffer already holds (or has in flight) the line; promote it
		// and keep prefetching down the stream.
		h.Stats.StreamBufHits++
		h.insertL1I(core, line)
		h.prefetchStream(core, line)
		return Result{LvlL1, now + uint64(h.cfg.L1Lat)}
	}
	// Fill from L2 (or memory); instruction lines are never dirty.
	var r Result
	delay := uint64(0)
	if h.cfg.SharedL2 {
		delay = h.acquirePort(now)
	}
	if h.l2of(core).Touch(line) != Invalid {
		h.Stats.L2Hits++
		r = Result{LvlL2, now + delay + uint64(h.cfg.L2Lat)}
	} else {
		h.Stats.L2Misses++
		h.Stats.MemAccesses++
		h.insertL2(core, line, Shared)
		r = Result{LvlMem, now + delay + uint64(h.cfg.MemLat)}
	}
	h.insertL1I(core, line)
	if h.cfg.StreamBuf {
		h.prefetchStream(core, line)
	}
	return r
}

// prefetchStream queues the successor lines of line into the stream buffer
// and warms them into the L2 (prefetches are not charged to the core).
func (h *Hierarchy) prefetchStream(core int, line mem.Addr) {
	for i := 1; i <= h.cfg.StreamBufDepth; i++ {
		next := line + mem.Addr(i*mem.LineSize)
		h.sb[core].push(next)
		if h.l2of(core).Probe(next) == Invalid {
			h.insertL2(core, next, Shared)
		}
	}
}

// Warm variants update cache contents without timing or port pressure;
// they implement SimFlex-style functional warming before measurement.

// WarmRead warms a load.
func (h *Hierarchy) WarmRead(core int, a mem.Addr) {
	line := a.Line()
	if h.l1d[core].Touch(line) != Invalid {
		return
	}
	if h.cfg.SharedL2 {
		for i := range h.l1d {
			if i != core && h.filled[i] && h.l1d[i].Probe(line) == Modified {
				h.l1d[i].SetState(line, Shared)
				h.lost(i, line, LostModified, core)
				h.l2[0].SetState(line, Modified)
				h.insertL1D(core, line, Shared)
				return
			}
		}
	}
	if h.l2of(core).Touch(line) == Invalid {
		h.insertL2(core, line, Exclusive)
	}
	h.insertL1D(core, line, Shared)
}

// WarmWrite warms a store.
func (h *Hierarchy) WarmWrite(core int, a mem.Addr) {
	line := a.Line()
	if h.l1d[core].Touch(line) == Invalid {
		if h.l2of(core).Touch(line) == Invalid {
			h.insertL2(core, line, Modified)
		}
		h.insertL1D(core, line, Modified)
	}
	h.invalidatePeersQuiet(core, line)
	h.l1d[core].SetState(line, Modified)
	h.l2of(core).SetState(line, Modified)
}

func (h *Hierarchy) invalidatePeersQuiet(core int, line mem.Addr) {
	if h.cfg.SharedL2 {
		for i := range h.l1d {
			if i != core && h.filled[i] {
				h.invalidateL1D(i, line, core)
			}
		}
		return
	}
	for i := range h.l2 {
		if i != core && h.l2[i].Invalidate(line) != Invalid {
			h.invalidateL1D(i, line, core)
		}
	}
}

// WarmFetch warms an instruction fetch.
func (h *Hierarchy) WarmFetch(core int, a mem.Addr) {
	line := a.Line()
	if h.l1i[core].Touch(line) != Invalid {
		return
	}
	if h.l2of(core).Touch(line) == Invalid {
		h.insertL2(core, line, Shared)
	}
	h.insertL1I(core, line)
}

// streamBuffer is a small FIFO of prefetched instruction-line addresses
// (Jouppi-style), consulted on L1I misses.
type streamBuffer struct {
	lines []mem.Addr
}

func newStreamBuffer(depth int) *streamBuffer {
	if depth < 1 {
		depth = 1
	}
	return &streamBuffer{lines: make([]mem.Addr, 0, depth*2)}
}

func (b *streamBuffer) hit(line mem.Addr) bool {
	for _, l := range b.lines {
		if l == line {
			return true
		}
	}
	return false
}

func (b *streamBuffer) push(line mem.Addr) {
	if b.hit(line) {
		return
	}
	if len(b.lines) == cap(b.lines) {
		copy(b.lines, b.lines[1:])
		b.lines = b.lines[:len(b.lines)-1]
	}
	b.lines = append(b.lines, line)
}
