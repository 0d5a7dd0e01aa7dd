// Package npu models the NPU hardware that V10 targets: a TPU-like core with
// a 128×128 systolic array (SA), an 8×128×2 vector unit (VU), software-managed
// vector memory, and off-chip HBM (paper Table 5). It also provides the
// hardware cost models the paper reports: the operator-preemption context
// switch (§3.3) and the tensor-operator-scheduler overhead (Table 3).
package npu

import (
	"fmt"
	"math"
)

// MaxFUs bounds a core's functional units of each kind, counted across all
// of its vNPU slices: trace events carry an FU's index as an int16.
const MaxFUs = math.MaxInt16

// CoreConfig describes one NPU core. The zero value is not meaningful;
// start from DefaultConfig.
type CoreConfig struct {
	SADim         int     // systolic array dimension (SADim×SADim PEs)
	NumSA         int     // number of systolic arrays in the core
	NumVU         int     // number of vector units in the core
	VUSubunits    int     // SIMD subunits in the VU
	VULanes       int     // lanes per subunit
	VUOpsPerLane  int     // FP32 operations per lane per cycle
	FrequencyHz   float64 // core clock
	VMemBytes     int64   // on-chip vector memory capacity
	HBMBytes      int64   // off-chip HBM capacity
	HBMBandwidth  float64 // off-chip bandwidth in bytes/second
	TimeSlice     int64   // scheduler time slice in cycles (preemption timer)
	VURegFileBits int     // vector register file: registers × width per lane
}

// DefaultConfig returns the paper's Table 5 configuration: 128×128 SA,
// 8×128×2 FP32 ops/cycle VU, 700 MHz, 32 MB vector memory, 32 GB HBM at
// 330 GB/s, and a 32768-cycle (~46 µs) scheduler time slice.
func DefaultConfig() CoreConfig {
	return CoreConfig{
		SADim:         128,
		NumSA:         1,
		NumVU:         1,
		VUSubunits:    8,
		VULanes:       128,
		VUOpsPerLane:  2,
		FrequencyHz:   700e6,
		VMemBytes:     32 << 20,
		HBMBytes:      32 << 30,
		HBMBandwidth:  330e9,
		TimeSlice:     32768,
		VURegFileBits: 32 * 32,
	}
}

// Validate reports configuration errors.
func (c CoreConfig) Validate() error {
	switch {
	case c.SADim <= 0:
		return fmt.Errorf("npu: SADim must be positive, got %d", c.SADim)
	case c.NumSA <= 0 || c.NumVU <= 0:
		return fmt.Errorf("npu: need at least one SA and one VU, got %d/%d", c.NumSA, c.NumVU)
	case c.NumSA > MaxFUs:
		return fmt.Errorf("npu: NumSA %d exceeds the %d functional units a core may have", c.NumSA, MaxFUs)
	case c.NumVU > MaxFUs:
		return fmt.Errorf("npu: NumVU %d exceeds the %d functional units a core may have", c.NumVU, MaxFUs)
	case c.FrequencyHz <= 0:
		return fmt.Errorf("npu: non-positive frequency %v", c.FrequencyHz)
	case c.VMemBytes <= 0 || c.HBMBytes <= 0:
		return fmt.Errorf("npu: non-positive memory capacity")
	case c.HBMBandwidth <= 0:
		return fmt.Errorf("npu: non-positive HBM bandwidth")
	case c.TimeSlice <= 0:
		return fmt.Errorf("npu: non-positive time slice")
	}
	return nil
}

// CyclesPerMicrosecond converts wall time to cycles (700 at 700 MHz).
func (c CoreConfig) CyclesPerMicrosecond() float64 { return c.FrequencyHz / 1e6 }

// MicrosecondsFromCycles converts cycles to wall-clock microseconds.
func (c CoreConfig) MicrosecondsFromCycles(cycles int64) float64 {
	return float64(cycles) / c.CyclesPerMicrosecond()
}

// PeakSAFLOPsPerCycle is the per-SA peak: each PE does one multiply-accumulate
// (2 FLOPs) per cycle.
func (c CoreConfig) PeakSAFLOPsPerCycle() float64 {
	return 2 * float64(c.SADim) * float64(c.SADim)
}

// PeakVUFLOPsPerCycle is the per-VU peak (8×128×2 = 2048 for the default).
func (c CoreConfig) PeakVUFLOPsPerCycle() float64 {
	return float64(c.VUSubunits) * float64(c.VULanes) * float64(c.VUOpsPerLane)
}

// PeakFLOPS returns the core's aggregate peak in FLOP/s across all SAs and
// VUs (~23.4 TFLOP/s for the default config, matching the paper's roofline
// ceiling of ~24 TFLOP/s).
func (c CoreConfig) PeakFLOPS() float64 {
	// The conversions round each product before it is summed, so no
	// architecture may fuse them into a multiply-add.
	perCycle := float64(float64(c.NumSA)*c.PeakSAFLOPsPerCycle()) + float64(float64(c.NumVU)*c.PeakVUFLOPsPerCycle())
	return perCycle * c.FrequencyHz
}

// HBMBytesPerCycle is the off-chip bandwidth expressed per core cycle
// (~471 B/cycle for 330 GB/s at 700 MHz).
func (c CoreConfig) HBMBytesPerCycle() float64 { return c.HBMBandwidth / c.FrequencyHz }

// WithFUs returns c scaled to n SAs and n VUs with HBM bandwidth scaled
// proportionally, the paper's §5.9 scaling rule ("NPU hardware designers
// scale the HBM bandwidth with the increasing number of SAs/VUs").
func (c CoreConfig) WithFUs(n int) CoreConfig {
	if n <= 0 {
		panic("npu: WithFUs requires n >= 1")
	}
	scaled := c
	scaled.NumSA = n
	scaled.NumVU = n
	scaled.HBMBandwidth = c.HBMBandwidth * float64(n)
	scaled.VMemBytes = c.VMemBytes * int64(n)
	return scaled
}
