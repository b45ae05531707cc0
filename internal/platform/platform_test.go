package platform

import (
	"testing"

	"rtmdm/internal/cost"
	"rtmdm/internal/sim"
)

// testPlatform returns a platform with round numbers: CPU work passes
// through 1:1; memory moves 1 byte/ns with 100 ns setup; 20% mutual
// slowdown under contention.
func testPlatform() cost.Platform {
	return cost.Platform{
		Name: "test",
		CPU: cost.CPUProfile{
			Name: "testcpu", Hz: 1_000_000_000, DefaultMACsPerCycle: 1,
		},
		Mem:            cost.MemProfile{Name: "testmem", BandwidthBps: 1_000_000_000, SetupNs: 100},
		SRAMBytes:      1 << 20,
		WeightBufBytes: 1 << 19,
		Bus:            cost.Contention{CPUNum: 4, CPUDen: 5, DMANum: 4, DMADen: 5},
	}
}

func noContention() cost.Platform {
	p := testPlatform()
	p.Bus = cost.NoContention()
	return p
}

func TestCPURunsWorkToCompletion(t *testing.T) {
	eng := sim.NewEngine()
	_, cpu, _ := NewBus(eng, noContention())
	done := sim.Time(-1)
	cpu.Run(5000, func() { done = eng.Now() })
	eng.RunAll(0)
	if done != 5000 {
		t.Fatalf("CPU work finished at %v, want 5000", done)
	}
	if cpu.Busy() {
		t.Fatal("CPU still busy after completion")
	}
	if cpu.BusyNs != 5000 {
		t.Fatalf("BusyNs = %d, want 5000", cpu.BusyNs)
	}
}

func TestCPURunWhileBusyPanics(t *testing.T) {
	eng := sim.NewEngine()
	_, cpu, _ := NewBus(eng, noContention())
	cpu.Run(100, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	cpu.Run(100, func() {})
}

func TestDMATransferTiming(t *testing.T) {
	eng := sim.NewEngine()
	_, _, dma := NewBus(eng, noContention())
	var started, done sim.Time = -1, -1
	dma.Submit(&Transfer{
		Bytes:   1000,
		OnStart: func() { started = eng.Now() },
		OnDone:  func() { done = eng.Now() },
	})
	eng.RunAll(0)
	if started != 0 {
		t.Fatalf("transfer started at %v, want 0", started)
	}
	// 100 ns setup + 1000 bytes at 1 B/ns.
	if done != 1100 {
		t.Fatalf("transfer done at %v, want 1100", done)
	}
	if dma.Completed != 1 {
		t.Fatalf("Completed = %d", dma.Completed)
	}
}

func TestDMAZeroByteCompletesInline(t *testing.T) {
	eng := sim.NewEngine()
	_, _, dma := NewBus(eng, noContention())
	done := false
	dma.Submit(&Transfer{Bytes: 0, OnDone: func() { done = true }})
	if !done {
		t.Fatal("zero-byte transfer did not complete synchronously")
	}
	if dma.Busy() {
		t.Fatal("zero-byte transfer occupies the channel")
	}
}

func TestDMAPriorityArbitration(t *testing.T) {
	eng := sim.NewEngine()
	_, _, dma := NewBus(eng, noContention())
	var order []int
	mk := func(prio int) *Transfer {
		return &Transfer{Bytes: 100, Priority: prio,
			OnDone: func() { order = append(order, prio) }}
	}
	// First transfer occupies the channel; the rest queue and must be
	// served by ascending priority value.
	dma.Submit(mk(5))
	dma.Submit(mk(3))
	dma.Submit(mk(1))
	dma.Submit(mk(2))
	eng.RunAll(0)
	want := []int{5, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

func TestDMAFIFOArbitration(t *testing.T) {
	eng := sim.NewEngine()
	_, _, dma := NewBus(eng, noContention())
	dma.SetArbitration(ArbFIFO)
	var order []int
	mk := func(prio int) *Transfer {
		return &Transfer{Bytes: 100, Priority: prio,
			OnDone: func() { order = append(order, prio) }}
	}
	dma.Submit(mk(5))
	dma.Submit(mk(3))
	dma.Submit(mk(1))
	eng.RunAll(0)
	want := []int{5, 3, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("FIFO service order %v, want %v", order, want)
		}
	}
}

func TestDMAPriorityTiesAreFIFO(t *testing.T) {
	eng := sim.NewEngine()
	_, _, dma := NewBus(eng, noContention())
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		dma.Submit(&Transfer{Bytes: 10, Priority: 7,
			OnDone: func() { order = append(order, i) }})
	}
	eng.RunAll(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-priority order %v not FIFO", order)
		}
	}
}

func TestDMACancelQueuedTransfer(t *testing.T) {
	eng := sim.NewEngine()
	_, _, dma := NewBus(eng, noContention())
	fired := false
	dma.Submit(&Transfer{Bytes: 1000}) // occupies channel
	tr := &Transfer{Bytes: 10, OnDone: func() { fired = true }}
	dma.Submit(tr)
	if !dma.Cancel(tr) {
		t.Fatal("Cancel of queued transfer failed")
	}
	eng.RunAll(0)
	if fired {
		t.Fatal("cancelled transfer completed")
	}
}

func TestDMACancelInFlightFails(t *testing.T) {
	eng := sim.NewEngine()
	_, _, dma := NewBus(eng, noContention())
	tr := &Transfer{Bytes: 1000}
	dma.Submit(tr)
	if dma.Cancel(tr) {
		t.Fatal("Cancel of in-flight transfer succeeded")
	}
	eng.RunAll(0)
}

func TestBusContentionSlowsBothParties(t *testing.T) {
	// CPU: 1000 work-ns. DMA: 100 setup + 900 bytes = 1000 work-ns.
	// Both start at t=0 with 4/5 mutual derating. They finish their
	// overlapped portions at the same time: 1000 work at 4/5 rate = 1250.
	eng := sim.NewEngine()
	_, cpu, dma := NewBus(eng, testPlatform())
	var cpuDone, dmaDone sim.Time = -1, -1
	cpu.Run(1000, func() { cpuDone = eng.Now() })
	dma.Submit(&Transfer{Bytes: 900, OnDone: func() { dmaDone = eng.Now() }})
	eng.RunAll(0)
	if cpuDone != 1250 {
		t.Fatalf("CPU finished at %v, want 1250", cpuDone)
	}
	if dmaDone != 1250 {
		t.Fatalf("DMA finished at %v, want 1250", dmaDone)
	}
}

func TestBusContentionRecoversWhenPeerFinishes(t *testing.T) {
	// CPU has 1000 work; DMA transfer is short (100 setup + 100 bytes =
	// 200 work). Overlap ends when DMA finishes at 200/(4/5) = 250; by
	// then CPU progressed 250·4/5 = 200 work-ns; the remaining 800 runs
	// at full rate → done at 1050.
	eng := sim.NewEngine()
	_, cpu, dma := NewBus(eng, testPlatform())
	var cpuDone sim.Time = -1
	cpu.Run(1000, func() { cpuDone = eng.Now() })
	dma.Submit(&Transfer{Bytes: 100})
	eng.RunAll(0)
	if cpuDone != 1050 {
		t.Fatalf("CPU finished at %v, want 1050", cpuDone)
	}
}

func TestNoContentionIsTransparent(t *testing.T) {
	eng := sim.NewEngine()
	_, cpu, dma := NewBus(eng, noContention())
	var cpuDone, dmaDone sim.Time = -1, -1
	cpu.Run(1000, func() { cpuDone = eng.Now() })
	dma.Submit(&Transfer{Bytes: 900, OnDone: func() { dmaDone = eng.Now() }})
	eng.RunAll(0)
	if cpuDone != 1000 || dmaDone != 1000 {
		t.Fatalf("cpu %v dma %v, want 1000 both", cpuDone, dmaDone)
	}
}

func TestSRAMAccounting(t *testing.T) {
	s := NewSRAM(1000)
	if !s.Alloc(600) {
		t.Fatal("alloc 600/1000 failed")
	}
	if s.Alloc(500) {
		t.Fatal("overcommit allowed")
	}
	if !s.Alloc(400) {
		t.Fatal("alloc to exactly full failed")
	}
	if s.Free() != 0 || s.Used() != 1000 {
		t.Fatalf("used %d free %d", s.Used(), s.Free())
	}
	s.Release(500)
	if s.Used() != 500 {
		t.Fatalf("used after release = %d", s.Used())
	}
	if s.Peak() != 1000 {
		t.Fatalf("peak = %d, want 1000", s.Peak())
	}
}

func TestSRAMReleaseTooMuchPanics(t *testing.T) {
	s := NewSRAM(100)
	s.Alloc(50)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	s.Release(60)
}

func TestSetArbitrationLatePanics(t *testing.T) {
	eng := sim.NewEngine()
	_, _, dma := NewBus(eng, noContention())
	dma.Submit(&Transfer{Bytes: 10})
	defer func() {
		if recover() == nil {
			t.Fatal("late SetArbitration did not panic")
		}
	}()
	dma.SetArbitration(ArbFIFO)
}

func TestDMABackToBackKeepsChannelBusy(t *testing.T) {
	// Serving n equal transfers takes exactly n·(setup+size) with no gaps.
	eng := sim.NewEngine()
	_, _, dma := NewBus(eng, noContention())
	var last sim.Time
	for i := 0; i < 5; i++ {
		dma.Submit(&Transfer{Bytes: 400, OnDone: func() { last = eng.Now() }})
	}
	eng.RunAll(0)
	if want := sim.Time(5 * (100 + 400)); last != want {
		t.Fatalf("5 transfers finished at %v, want %v", last, want)
	}
	if dma.BusyNs != 2500 {
		t.Fatalf("BusyNs = %d, want 2500", dma.BusyNs)
	}
}

func TestArbitrationStringAndQueueLen(t *testing.T) {
	if ArbPriority.String() != "priority" || ArbFIFO.String() != "fifo" {
		t.Fatal("Arbitration strings")
	}
	eng := sim.NewEngine()
	_, _, dma := NewBus(eng, noContention())
	dma.Submit(&Transfer{Bytes: 100})
	dma.Submit(&Transfer{Bytes: 100})
	if dma.QueueLen() != 1 {
		t.Fatalf("QueueLen = %d, want 1 (one in flight, one queued)", dma.QueueLen())
	}
	eng.RunAll(0)
	if dma.QueueLen() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestNewBusRejectsInvalidPlatform(t *testing.T) {
	bad := testPlatform()
	bad.SRAMBytes = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid platform accepted")
		}
	}()
	NewBus(sim.NewEngine(), bad)
}

func TestNewSRAMRejectsZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewSRAM(0)
}

func TestSRAMNegativeAllocPanics(t *testing.T) {
	s := NewSRAM(10)
	defer func() {
		if recover() == nil {
			t.Fatal("negative alloc accepted")
		}
	}()
	s.Alloc(-1)
}

func TestCPUNegativeWorkPanics(t *testing.T) {
	eng := sim.NewEngine()
	_, cpu, _ := NewBus(eng, noContention())
	defer func() {
		if recover() == nil {
			t.Fatal("negative CPU work accepted")
		}
	}()
	cpu.Run(-5, func() {})
}

func TestDMANegativeTransferPanics(t *testing.T) {
	eng := sim.NewEngine()
	_, _, dma := NewBus(eng, noContention())
	defer func() {
		if recover() == nil {
			t.Fatal("negative transfer accepted")
		}
	}()
	dma.Submit(&Transfer{Bytes: -1})
}

// TestWarmWorkItemsAllocateNothing pins the devices' reuse of their one
// activity each: once the engine's slab is warm, a CPU work item and a
// DMA transfer (overlapping, so the bus re-rates both) run to completion
// without a single allocation, given callbacks the caller bound once.
func TestWarmWorkItemsAllocateNothing(t *testing.T) {
	eng := sim.NewEngine()
	_, cpu, dma := NewBus(eng, testPlatform())
	var cpuDone, dmaDone int
	onCPU := func() { cpuDone++ }
	x := &Transfer{Bytes: 4096, OnDone: func() { dmaDone++ }}
	item := func() {
		cpu.Run(5000, onCPU)
		dma.Submit(x)
		eng.RunAll(0)
	}
	item() // warm the event slab
	if allocs := testing.AllocsPerRun(100, item); allocs != 0 {
		t.Fatalf("warm CPU work item + DMA transfer: %.0f allocs/op, want 0", allocs)
	}
	if cpuDone != 102 || dmaDone != 102 || cpu.Busy() || dma.Busy() {
		t.Fatalf("items did not complete: cpu %d, dma %d", cpuDone, dmaDone)
	}
}

// TestCancelNeverSubmittedTransfer pins Cancel's queued/not-queued
// exactness for a reusable transfer: one never submitted, or already
// finished, is not in the queue and must not disturb it.
func TestCancelNeverSubmittedTransfer(t *testing.T) {
	eng := sim.NewEngine()
	_, _, dma := NewBus(eng, noContention())
	head, queued, idle := &Transfer{Bytes: 100}, &Transfer{Bytes: 100}, &Transfer{Bytes: 100}
	dma.Submit(head)
	dma.Submit(queued)
	if dma.Cancel(idle) {
		t.Fatal("cancelled a transfer that was never submitted")
	}
	if dma.QueueLen() != 1 || !dma.Cancel(queued) || dma.QueueLen() != 0 {
		t.Fatal("queued transfer not cancelled exactly once")
	}
	eng.RunAll(0)
	if dma.Cancel(head) {
		t.Fatal("cancelled a finished transfer")
	}
}
