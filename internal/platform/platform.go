// Package platform provides the simulated MCU hardware: a single CPU core,
// a single-channel DMA engine fed by an external memory, an SRAM staging
// allocator, and the shared bus that couples CPU and DMA progress rates.
// All components operate in the virtual time of an internal/sim engine, so
// behaviour is deterministic and independent of the Go runtime.
package platform

import (
	"container/heap"
	"fmt"

	"rtmdm/internal/cost"
	"rtmdm/internal/sim"
)

// Bus couples the progress rates of the CPU and the DMA engine according to
// a cost.Contention model: while both are active each runs derated.
type Bus struct {
	eng *sim.Engine
	c   cost.Contention
	cpu *CPU
	dma *DMA
}

// NewBus creates the shared bus and the attached CPU and DMA devices.
func NewBus(eng *sim.Engine, p cost.Platform) (*Bus, *CPU, *DMA) {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("platform: %v", err))
	}
	b := &Bus{eng: eng, c: p.Bus}
	b.cpu = &CPU{eng: eng, bus: b}
	b.cpu.act = sim.NewActivity(eng, 0, b.cpu.finish)
	b.dma = &DMA{eng: eng, bus: b, mem: p.Mem}
	b.dma.act = sim.NewActivity(eng, 0, b.dma.finish)
	return b, b.cpu, b.dma
}

// update recomputes both devices' progress rates after any activity change.
func (b *Bus) update() {
	cpuBusy, dmaBusy := b.cpu.Busy(), b.dma.Busy()
	if b.cpu.act.Running() {
		num, den := int64(1), int64(1)
		if dmaBusy {
			num, den = b.c.CPUNum, b.c.CPUDen
		}
		b.cpu.act.SetRate(num, den)
	}
	if b.dma.act.Running() {
		num, den := int64(1), int64(1)
		if cpuBusy {
			num, den = b.c.DMANum, b.c.DMADen
		}
		b.dma.act.SetRate(num, den)
	}
}

// CPU is the single MCU core. It executes one non-preemptive work item at a
// time; the executor layers preemption at segment boundaries above it.
type CPU struct {
	eng *sim.Engine
	bus *Bus
	// act is the core's one activity, re-armed for every work item.
	act    *sim.Activity
	busy   bool
	onDone func()
	// BusyNs accumulates pure work-ns executed (at unit rate), for
	// utilization accounting.
	BusyNs int64
}

// Busy reports whether a work item is in flight.
func (c *CPU) Busy() bool { return c.busy }

// Run starts a non-preemptive work item of the given duration (work-ns at
// full rate). onDone fires in virtual time when it completes. Running while
// busy panics: the executor must serialize. Run allocates nothing when
// onDone is a function value the caller bound once.
//
//rtmdm:hotpath
func (c *CPU) Run(workNs int64, onDone func()) {
	if c.busy {
		panic("platform: CPU.Run while busy")
	}
	if workNs < 0 {
		negativeWork(workNs)
	}
	c.busy = true
	c.BusyNs += workNs
	c.onDone = onDone
	c.act.Reset(workNs)
	// Start at the rate implied by current DMA activity.
	num, den := int64(1), int64(1)
	if c.bus.dma.Busy() {
		num, den = c.bus.c.CPUNum, c.bus.c.CPUDen
	}
	c.act.Start(num, den)
	c.bus.update()
}

// negativeWork panics on a negative work item (kept out of line so Run
// stays allocation-free).
func negativeWork(workNs int64) {
	panic(fmt.Sprintf("platform: negative CPU work %d", workNs))
}

// finish completes the in-flight work item.
func (c *CPU) finish() {
	c.busy = false
	c.bus.update()
	onDone := c.onDone
	c.onDone = nil
	onDone()
}

// Abort cancels the in-flight work item without firing its onDone: the
// core is reclaimed immediately (fault handling: a job killed at its
// deadline). The unexecuted remainder is refunded from BusyNs so
// utilization accounting reflects work actually done. Returns the refunded
// work-ns (0 when idle).
func (c *CPU) Abort() int64 {
	if !c.busy {
		return 0
	}
	rem := c.act.Remaining()
	c.BusyNs -= rem
	c.act.Pause() // banks progress and cancels the armed completion event
	c.onDone = nil
	c.busy = false
	c.bus.update()
	return rem
}

// Arbitration selects the DMA queue ordering.
type Arbitration int

const (
	// ArbPriority serves the pending transfer with the numerically
	// smallest priority value first (ties FIFO).
	ArbPriority Arbitration = iota
	// ArbFIFO serves transfers strictly in submission order.
	ArbFIFO
)

func (a Arbitration) String() string {
	if a == ArbFIFO {
		return "fifo"
	}
	return "priority"
}

// Transfer is a queued DMA request.
type Transfer struct {
	// Bytes to move from external memory to SRAM.
	Bytes int64
	// Priority orders the queue under ArbPriority; smaller is more urgent.
	Priority int
	// OnStart fires when the transfer leaves the queue and occupies the
	// channel; OnDone when it completes. Either may be nil. A transfer may
	// be submitted again once it has completed or been cancelled, so a
	// requester can own one transfer and bind its callbacks once.
	OnStart func()
	OnDone  func()

	seq   uint64
	index int
}

type transferQueue struct {
	items []*Transfer
	arb   Arbitration
}

func (q *transferQueue) Len() int { return len(q.items) }
func (q *transferQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if q.arb == ArbPriority && a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.seq < b.seq
}
func (q *transferQueue) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].index = i
	q.items[j].index = j
}
func (q *transferQueue) Push(x any) {
	t := x.(*Transfer)
	t.index = len(q.items)
	q.items = append(q.items, t)
}
func (q *transferQueue) Pop() any {
	old := q.items
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	q.items = old[:n-1]
	return t
}

// DMA is the single-channel DMA engine reading from external memory.
// Transfers are non-preemptive; queued requests are served according to the
// configured arbitration.
type DMA struct {
	eng     *sim.Engine
	bus     *Bus
	mem     cost.MemProfile
	queue   transferQueue
	current *Transfer
	// act is the channel's one activity, re-armed for every transfer.
	act    *sim.Activity
	seq    uint64
	derate func(at sim.Time, workNs int64) int64
	// BusyNs accumulates pure transfer work-ns (at unit rate).
	BusyNs int64
	// Completed counts finished transfers.
	Completed uint64
}

// SetDerate installs a hook that transforms each transfer's nominal work-ns
// at the instant it occupies the channel (fault injection: transient bus
// slowdown windows). The hook must be deterministic in its arguments; a nil
// hook (the default) keeps nominal timing.
func (d *DMA) SetDerate(fn func(at sim.Time, workNs int64) int64) { d.derate = fn }

// Current returns the transfer occupying the channel, or nil when idle.
func (d *DMA) Current() *Transfer { return d.current }

// Abort cancels the in-flight transfer without firing its OnDone and starts
// the next queued transfer, if any (fault handling: the submitting job was
// killed). The unmoved remainder is refunded from BusyNs. Returns the
// refunded work-ns (0 when idle).
func (d *DMA) Abort() int64 {
	if d.current == nil {
		return 0
	}
	rem := d.act.Remaining()
	d.BusyNs -= rem
	d.act.Pause()
	d.current = nil
	d.bus.update()
	d.tryStart()
	return rem
}

// SetArbitration selects the queue policy; it must be called before any
// transfer is submitted.
func (d *DMA) SetArbitration(a Arbitration) {
	if d.current != nil || d.queue.Len() > 0 {
		panic("platform: SetArbitration with transfers in flight")
	}
	d.queue.arb = a
}

// Busy reports whether a transfer occupies the channel.
func (d *DMA) Busy() bool { return d.current != nil }

// QueueLen returns the number of queued (not yet started) transfers.
func (d *DMA) QueueLen() int { return d.queue.Len() }

// Submit enqueues a transfer. Zero-byte transfers complete immediately
// without occupying the channel.
func (d *DMA) Submit(t *Transfer) {
	if t.Bytes < 0 {
		panic(fmt.Sprintf("platform: negative transfer size %d", t.Bytes))
	}
	if t.Bytes == 0 {
		if t.OnStart != nil {
			t.OnStart()
		}
		if t.OnDone != nil {
			t.OnDone()
		}
		return
	}
	t.seq = d.seq
	d.seq++
	heap.Push(&d.queue, t)
	d.tryStart()
}

// Cancel removes a still-queued transfer. It returns false if the transfer
// already started (non-preemptive transfers cannot be revoked), finished,
// or was never submitted.
func (d *DMA) Cancel(t *Transfer) bool {
	if t == d.current || t.index < 0 || t.index >= len(d.queue.items) || d.queue.items[t.index] != t {
		return false
	}
	heap.Remove(&d.queue, t.index)
	t.index = -1
	return true
}

// tryStart moves the next queued transfer onto the idle channel.
//
//rtmdm:hotpath
func (d *DMA) tryStart() {
	if d.current != nil || d.queue.Len() == 0 {
		return
	}
	t := heap.Pop(&d.queue).(*Transfer)
	d.current = t
	work := d.mem.TransferNs(t.Bytes)
	if d.derate != nil {
		if w := d.derate(d.eng.Now(), work); w > 0 {
			work = w
		}
	}
	d.BusyNs += work
	if t.OnStart != nil {
		t.OnStart()
	}
	d.act.Reset(work)
	num, den := int64(1), int64(1)
	if d.bus.cpu.Busy() {
		num, den = d.bus.c.DMANum, d.bus.c.DMADen
	}
	d.act.Start(num, den)
	d.bus.update()
}

// finish completes the transfer occupying the channel and starts the next.
func (d *DMA) finish() {
	t := d.current
	d.current = nil
	d.Completed++
	d.bus.update()
	if t.OnDone != nil {
		t.OnDone()
	}
	d.tryStart()
}

// SRAM is the staging allocator for parameter buffers. It does pure
// capacity accounting: the executor owns placement policy.
type SRAM struct {
	Capacity int64
	used     int64
	peak     int64
}

// NewSRAM creates an allocator with the given capacity in bytes.
func NewSRAM(capacity int64) *SRAM {
	if capacity <= 0 {
		panic(fmt.Sprintf("platform: non-positive SRAM capacity %d", capacity))
	}
	return &SRAM{Capacity: capacity}
}

// Used returns the currently allocated bytes.
func (s *SRAM) Used() int64 { return s.used }

// Peak returns the high-water mark of allocated bytes.
func (s *SRAM) Peak() int64 { return s.peak }

// Free returns the available bytes.
func (s *SRAM) Free() int64 { return s.Capacity - s.used }

// Alloc reserves n bytes, failing (false) if capacity would be exceeded.
func (s *SRAM) Alloc(n int64) bool {
	if n < 0 {
		panic(fmt.Sprintf("platform: negative alloc %d", n))
	}
	if s.used+n > s.Capacity {
		return false
	}
	s.used += n
	if s.used > s.peak {
		s.peak = s.used
	}
	return true
}

// Release returns n bytes to the pool.
func (s *SRAM) Release(n int64) {
	if n < 0 || n > s.used {
		panic(fmt.Sprintf("platform: release %d with %d used", n, s.used))
	}
	s.used -= n
}
