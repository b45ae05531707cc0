// Package cost maps neural-network layers onto MCU execution time and
// external-memory transfer time. Profiles are calibrated against published
// CMSIS-NN int8 throughput figures (MACs/cycle by operator class) and
// datasheet external-memory bandwidths, so the simulated latencies land in
// the millisecond range real boards exhibit for the same models.
package cost

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"rtmdm/internal/nn"
	"rtmdm/internal/uarch"
)

// CPUProfile describes an MCU core for cost purposes.
type CPUProfile struct {
	Name string
	// Hz is the core clock frequency.
	Hz int64
	// MACsPerCycle is the sustained int8 multiply-accumulate throughput by
	// operator kind. Operators absent from the map fall back to
	// DefaultMACsPerCycle.
	MACsPerCycle map[nn.Kind]float64
	// DefaultMACsPerCycle covers operator kinds without a specific entry.
	DefaultMACsPerCycle float64
	// LayerOverheadCycles is the fixed per-layer dispatch cost (operator
	// setup, im2col bookkeeping, function-call overhead).
	LayerOverheadCycles int64
	// SwitchNs is the context-switch cost charged when the scheduler
	// dispatches a segment of a different job than the previous one
	// (register save/restore, pipeline refill, cache pollution).
	SwitchNs int64
	// DCache models the data cache in front of the SRAM holding staged
	// weights and activations; the zero value disables it (zero-wait-state
	// SRAM, M4-style).
	DCache uarch.Cache
}

// Validate reports configuration errors.
func (p CPUProfile) Validate() error {
	if p.Hz <= 0 {
		return fmt.Errorf("cost: cpu %q: non-positive clock %d", p.Name, p.Hz)
	}
	if p.DefaultMACsPerCycle <= 0 {
		return fmt.Errorf("cost: cpu %q: non-positive default throughput", p.Name)
	}
	if p.SwitchNs < 0 {
		return fmt.Errorf("cost: cpu %q: negative switch cost", p.Name)
	}
	if err := p.DCache.Validate(); err != nil {
		return fmt.Errorf("cost: cpu %q: %w", p.Name, err)
	}
	for k, v := range p.MACsPerCycle {
		if v <= 0 {
			return fmt.Errorf("cost: cpu %q: non-positive throughput for %v", p.Name, k)
		}
	}
	return nil
}

// macsPerCycle resolves the throughput for a layer kind.
func (p CPUProfile) macsPerCycle(k nn.Kind) float64 {
	if v, ok := p.MACsPerCycle[k]; ok {
		return v
	}
	return p.DefaultMACsPerCycle
}

// LayerCycles returns the execution cost of one layer in core cycles: the
// MAC throughput term, the fixed dispatch overhead, and (when a D-cache is
// configured) the memory stall cycles of the layer's traversal pattern.
func (p CPUProfile) LayerCycles(l nn.Layer) int64 {
	macs := l.MACs()
	if macs == 0 {
		return p.LayerOverheadCycles
	}
	c := int64(math.Ceil(float64(macs) / p.macsPerCycle(l.Kind())))
	return c + p.LayerOverheadCycles + p.DCache.LayerMissCycles(layerShape(l))
}

// layerShape maps an nn layer onto the micro-architectural traversal model.
func layerShape(l nn.Layer) uarch.LayerShape {
	out := l.OutShape()
	sh := uarch.LayerShape{
		ParamBytes: l.ParamBytes(),
		InBytes:    int64(l.InShape().Elems()),
		OutBytes:   int64(out.Elems()),
		SpatialOut: int64(out.H) * int64(out.W),
		OutC:       int64(out.C),
	}
	switch l.Kind() {
	case nn.KindConv2D:
		sh.Kind = uarch.KindConv
	case nn.KindDWConv2D:
		sh.Kind = uarch.KindDWConv
	case nn.KindDense:
		sh.Kind = uarch.KindDense
	default:
		sh.Kind = uarch.KindElementwise
	}
	return sh
}

// CyclesToNs converts core cycles to nanoseconds, rounding up.
func (p CPUProfile) CyclesToNs(cycles int64) int64 {
	return int64(math.Ceil(float64(cycles) * 1e9 / float64(p.Hz)))
}

// LayerTimeNs returns the execution time of one layer in nanoseconds.
func (p CPUProfile) LayerTimeNs(l nn.Layer) int64 {
	return p.CyclesToNs(p.LayerCycles(l))
}

// MemProfile describes an external memory reachable by DMA.
type MemProfile struct {
	Name string
	// BandwidthBps is the sustained DMA read bandwidth in bytes/second.
	BandwidthBps int64
	// SetupNs is the fixed per-transfer cost (DMA programming, command
	// phase, address phase, interrupt latency).
	SetupNs int64
}

// Validate reports configuration errors.
func (m MemProfile) Validate() error {
	if m.BandwidthBps <= 0 {
		return fmt.Errorf("cost: mem %q: non-positive bandwidth %d", m.Name, m.BandwidthBps)
	}
	if m.SetupNs < 0 {
		return fmt.Errorf("cost: mem %q: negative setup %d", m.Name, m.SetupNs)
	}
	return nil
}

// TransferNs returns the time to DMA-read the given number of bytes.
// Zero-byte transfers are free (no transfer is issued).
func (m MemProfile) TransferNs(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	return m.SetupNs + int64(math.Ceil(float64(bytes)*1e9/float64(m.BandwidthBps)))
}

// Contention models shared-bus interference between concurrent CPU compute
// and DMA transfers as exact rational rate factors. A factor of 9/10 means
// the resource progresses at 90% speed while the other is active.
// Num == Den (the default via NoContention) disables interference.
type Contention struct {
	CPUNum, CPUDen int64 // CPU compute rate while DMA is active
	DMANum, DMADen int64 // DMA transfer rate while CPU is computing
}

// NoContention returns an interference-free bus model.
func NoContention() Contention {
	return Contention{CPUNum: 1, CPUDen: 1, DMANum: 1, DMADen: 1}
}

// Validate reports configuration errors.
func (c Contention) Validate() error {
	if c.CPUNum <= 0 || c.CPUDen <= 0 || c.DMANum <= 0 || c.DMADen <= 0 {
		return fmt.Errorf("cost: contention rates must be positive: %+v", c)
	}
	if c.CPUNum > c.CPUDen || c.DMANum > c.DMADen {
		return fmt.Errorf("cost: contention cannot speed a resource up: %+v", c)
	}
	return nil
}

// EnergyProfile models the platform's power draw for energy accounting.
// Numbers are typical Cortex-M datasheet magnitudes; energy is derived
// from simulated busy times and transferred bytes, so it is deterministic.
type EnergyProfile struct {
	// CPUActiveMw is the core's active-compute power in milliwatts.
	CPUActiveMw float64
	// IdleMw is the sleep/WFI floor.
	IdleMw float64
	// DMAActiveMw is the DMA engine + bus power while transferring.
	DMAActiveMw float64
	// FlashReadNjPerByte is the external-flash read energy.
	FlashReadNjPerByte float64
}

// Validate reports configuration errors.
func (e EnergyProfile) Validate() error {
	if e.CPUActiveMw < 0 || e.IdleMw < 0 || e.DMAActiveMw < 0 || e.FlashReadNjPerByte < 0 {
		return fmt.Errorf("cost: negative energy parameter: %+v", e)
	}
	return nil
}

// EnergyMicroJ computes the energy of a window: idle floor over the whole
// horizon plus active increments for CPU and DMA busy time plus flash read
// energy per byte.
func (e EnergyProfile) EnergyMicroJ(horizonNs, cpuBusyNs, dmaBusyNs, flashBytes int64) float64 {
	toS := func(ns int64) float64 { return float64(ns) / 1e9 }
	// mW · s = mJ; ×1000 → µJ.
	uj := e.IdleMw*toS(horizonNs)*1000 +
		e.CPUActiveMw*toS(cpuBusyNs)*1000 +
		e.DMAActiveMw*toS(dmaBusyNs)*1000 +
		e.FlashReadNjPerByte*float64(flashBytes)/1000
	return uj
}

// Platform bundles everything the executor and the analyses need to know
// about the target hardware.
type Platform struct {
	Name string
	CPU  CPUProfile
	Mem  MemProfile
	// SRAMBytes is the total on-chip SRAM.
	SRAMBytes int64
	// WeightBufBytes is the SRAM carved out for staged parameter buffers
	// (the rest holds activations, stacks, and the runtime).
	WeightBufBytes int64
	Bus            Contention
	Energy         EnergyProfile
}

// Validate reports configuration errors.
func (p Platform) Validate() error {
	if err := p.CPU.Validate(); err != nil {
		return err
	}
	if err := p.Mem.Validate(); err != nil {
		return err
	}
	if err := p.Bus.Validate(); err != nil {
		return err
	}
	if p.SRAMBytes <= 0 {
		return fmt.Errorf("cost: platform %q: non-positive SRAM", p.Name)
	}
	if p.WeightBufBytes <= 0 || p.WeightBufBytes > p.SRAMBytes {
		return fmt.Errorf("cost: platform %q: weight buffer %d outside (0, %d]",
			p.Name, p.WeightBufBytes, p.SRAMBytes)
	}
	if err := p.Energy.Validate(); err != nil {
		return err
	}
	return nil
}

// PlatformKey is a comparable identity of a Platform, for memoization keys:
// two platforms have equal keys iff every field is equal, floats compared
// by their bits and a nil MACsPerCycle map told apart from an empty one.
// Platform holds a map and cannot be a map key itself.
type PlatformKey struct {
	name, cpuName string
	hz            int64
	// macs is MACsPerCycle in ascending kind order, 16 bytes per entry
	// (kind, float bits) after a one-byte non-nil marker; "" when nil.
	macs               string
	defaultMACs        uint64
	overhead, switchNs int64
	dcache             uarch.Cache
	mem                MemProfile
	sram, weightBuf    int64
	bus                Contention
	cpuMw, idleMw      uint64
	dmaMw, flashNjPerB uint64
}

// Key returns the platform's memoization key. It reads every field without
// fmt or reflection; hot paths compute it once and reuse it.
func (p Platform) Key() PlatformKey {
	return PlatformKey{
		name: p.Name, cpuName: p.CPU.Name, hz: p.CPU.Hz,
		macs:        macsKey(p.CPU.MACsPerCycle),
		defaultMACs: math.Float64bits(p.CPU.DefaultMACsPerCycle),
		overhead:    p.CPU.LayerOverheadCycles, switchNs: p.CPU.SwitchNs,
		dcache: p.CPU.DCache, mem: p.Mem,
		sram: p.SRAMBytes, weightBuf: p.WeightBufBytes, bus: p.Bus,
		cpuMw: math.Float64bits(p.Energy.CPUActiveMw), idleMw: math.Float64bits(p.Energy.IdleMw),
		dmaMw: math.Float64bits(p.Energy.DMAActiveMw), flashNjPerB: math.Float64bits(p.Energy.FlashReadNjPerByte),
	}
}

// macsKey encodes a throughput table in ascending kind order.
func macsKey(m map[nn.Kind]float64) string {
	if m == nil {
		return ""
	}
	var kbuf [16]nn.Kind
	kinds := kbuf[:0]
	for k := range m {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	var bbuf [1 + 16*16]byte
	b := append(bbuf[:0], 1)
	for _, k := range kinds {
		b = binary.LittleEndian.AppendUint64(b, uint64(k))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m[k]))
	}
	return string(b)
}

// WithWeightBuf returns a copy of the platform with a different staging
// budget (used by SRAM-sweep experiments).
func (p Platform) WithWeightBuf(bytes int64) Platform {
	p.WeightBufBytes = bytes
	return p
}

// WithBandwidth returns a copy of the platform with a different external
// memory bandwidth (used by bandwidth-sweep experiments).
func (p Platform) WithBandwidth(bps int64) Platform {
	p.Mem.BandwidthBps = bps
	return p
}

// WithSwitchCost returns a copy of the platform with a different context
// switch cost (used by the preemption-overhead ablation).
func (p Platform) WithSwitchCost(ns int64) Platform {
	p.CPU.SwitchNs = ns
	return p
}

// WithDCache returns a copy of the platform with a different data-cache
// size (0 disables the model; used by the cache-sensitivity sweep).
func (p Platform) WithDCache(sizeBytes int64) Platform {
	if sizeBytes <= 0 {
		p.CPU.DCache = uarch.Cache{}
	} else {
		p.CPU.DCache = uarch.Cache{SizeBytes: sizeBytes, LineBytes: 32, MissPenaltyCycles: 8}
	}
	return p
}

// cmsisNN returns the operator throughput table for a CMSIS-NN-class int8
// kernel library. dsp selects an M4/M7-style core with SIMD MAC support.
func cmsisNN(scale float64) map[nn.Kind]float64 {
	return map[nn.Kind]float64{
		nn.KindConv2D:   0.45 * scale,
		nn.KindDWConv2D: 0.28 * scale, // depthwise vectorizes poorly
		nn.KindDense:    0.50 * scale,
		nn.KindMaxPool:  0.80 * scale, // comparisons, not MACs
		nn.KindAvgPool:  0.60 * scale,
		nn.KindAdd:      0.50 * scale,
		nn.KindReLU:     1.00 * scale,
		nn.KindSoftmax:  0.05 * scale, // exp-heavy
		nn.KindConcat:   0.70 * scale, // requantizing copy
		nn.KindPad:      1.20 * scale, // memset + copy
	}
}

// Cortex-M CPU presets. The M7 gets a modest uplift over the M4 from its
// dual-issue pipeline and wider load path.
var (
	CortexM4_180 = CPUProfile{
		Name: "cortex-m4@180MHz", Hz: 180_000_000,
		MACsPerCycle: cmsisNN(1.0), DefaultMACsPerCycle: 0.4,
		LayerOverheadCycles: 2_000, SwitchNs: 4_000,
	}
	CortexM7_216 = CPUProfile{
		Name: "cortex-m7@216MHz", Hz: 216_000_000,
		MACsPerCycle: cmsisNN(1.3), DefaultMACsPerCycle: 0.5,
		LayerOverheadCycles: 2_000, SwitchNs: 2_500,
		DCache: uarch.Cache{SizeBytes: 4 << 10, LineBytes: 32, MissPenaltyCycles: 8},
	}
	CortexM7_480 = CPUProfile{
		Name: "cortex-m7@480MHz", Hz: 480_000_000,
		MACsPerCycle: cmsisNN(1.3), DefaultMACsPerCycle: 0.5,
		LayerOverheadCycles: 2_000, SwitchNs: 1_500,
		DCache: uarch.Cache{SizeBytes: 16 << 10, LineBytes: 32, MissPenaltyCycles: 8},
	}
)

// External memory presets.
var (
	// QSPIFlash64 is a quad-SPI NOR flash at ~64 MB/s sustained reads.
	QSPIFlash64 = MemProfile{Name: "qspi-flash", BandwidthBps: 64 << 20, SetupNs: 2_000}
	// QSPIFlash32 is a slower quad-SPI configuration.
	QSPIFlash32 = MemProfile{Name: "qspi-flash-slow", BandwidthBps: 32 << 20, SetupNs: 2_500}
	// OctalPSRAM is an octal-SPI PSRAM at ~250 MB/s.
	OctalPSRAM = MemProfile{Name: "octal-psram", BandwidthBps: 250 << 20, SetupNs: 1_000}
	// SDRAM is an FMC-attached SDRAM at ~320 MB/s.
	SDRAM = MemProfile{Name: "sdram", BandwidthBps: 320 << 20, SetupNs: 500}
)

// DefaultContention models a 10% CPU slowdown and 10% DMA slowdown while
// the other party is on the bus — typical for a well-partitioned AXI/AHB
// matrix where weight buffers live in a dedicated SRAM bank.
var DefaultContention = Contention{CPUNum: 9, CPUDen: 10, DMANum: 9, DMADen: 10}

// Platform presets used throughout the evaluation.
var (
	// STM32F446 is a low-end target: 180 MHz M4, 128 KB SRAM, slow QSPI.
	STM32F446 = Platform{
		Name: "stm32f446", CPU: CortexM4_180, Mem: QSPIFlash32,
		SRAMBytes: 128 << 10, WeightBufBytes: 48 << 10,
		Bus:    DefaultContention,
		Energy: EnergyProfile{CPUActiveMw: 90, IdleMw: 2, DMAActiveMw: 15, FlashReadNjPerByte: 3.5},
	}
	// STM32F746 is a mid-range target: 216 MHz M7, 320 KB SRAM.
	STM32F746 = Platform{
		Name: "stm32f746", CPU: CortexM7_216, Mem: QSPIFlash64,
		SRAMBytes: 320 << 10, WeightBufBytes: 96 << 10,
		Bus:    DefaultContention,
		Energy: EnergyProfile{CPUActiveMw: 180, IdleMw: 3, DMAActiveMw: 20, FlashReadNjPerByte: 3.0},
	}
	// STM32H743 is the default evaluation target: 480 MHz M7, 512 KB of
	// usable SRAM, QSPI flash for parameters. The flash runs the common
	// 32 MB/s quad-SPI configuration: at 480 MHz the core outruns the
	// external bus, which is exactly the regime that motivates RT-MDM.
	STM32H743 = Platform{
		Name: "stm32h743", CPU: CortexM7_480, Mem: QSPIFlash32,
		SRAMBytes: 512 << 10, WeightBufBytes: 192 << 10,
		Bus:    DefaultContention,
		Energy: EnergyProfile{CPUActiveMw: 260, IdleMw: 4, DMAActiveMw: 25, FlashReadNjPerByte: 3.0},
	}
)

// Platforms lists the built-in platform presets.
func Platforms() []Platform { return []Platform{STM32F446, STM32F746, STM32H743} }

// PlatformByName resolves a preset by name.
func PlatformByName(name string) (Platform, error) {
	for _, p := range Platforms() {
		if p.Name == name {
			return p, nil
		}
	}
	return Platform{}, fmt.Errorf("cost: unknown platform %q", name)
}
