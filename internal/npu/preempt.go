package npu

// Operator preemption cost model (paper §3.3).
//
// Preempting a VU operator only needs the PC and vector register values
// saved to vector memory: the VU holds no intermediate state between
// instructions.
//
// Preempting an SA operator uses the paper's input-replay mechanism: the SA
// keeps draining until all partial sums that depend on already-pushed inputs
// have been popped (SADim cycles, fully overlapped with useful output), new
// inputs are checkpointed to vector memory as they are pushed, and the next
// operator's weights are loaded while the preempted operator's weights are
// saved. For a 128×128 SA the exposed context-switch cost is 384 cycles
// (3×SADim) and the saved context is 96 KB (inputs 128×256×2 B + weights
// 128×128×2 B), 25% less than draining 4-byte partial sums.

// SAPreemptCycles returns the exposed cycles one SA context switch costs:
// 3×SADim (drain + weight swap + input replay, partially overlapped).
func (c CoreConfig) SAPreemptCycles() int64 { return int64(3 * c.SADim) }

// SAContextBytes returns the vector-memory bytes one preempted SA operator
// occupies: 2-byte inputs for 2×SADim columns plus 2-byte weights
// (SADim×2·SADim×2 + SADim×SADim×2 = 96 KB at SADim=128).
func (c CoreConfig) SAContextBytes() int64 {
	d := int64(c.SADim)
	inputs := d * 2 * d * 2 // SADim rows × 2·SADim in-flight columns × 2 B
	weights := d * d * 2
	return inputs + weights
}

// SANaiveContextBytes returns what draining the array directly would cost:
// inputs and weights plus 4-byte float32 partial sums (128 KB at SADim=128).
// Kept for the §3.3 comparison and the ablation bench.
func (c CoreConfig) SANaiveContextBytes() int64 {
	d := int64(c.SADim)
	return 2*d*d*2 + d*d*4 // 2×SADim×SADim×2 B inputs+weights, SADim×SADim×4 B partial sums
}

// VUPreemptCycles returns the exposed cycles for a VU context switch: the
// PC and the vector register file are spilled/restored through the vector
// memory write ports.
func (c CoreConfig) VUPreemptCycles() int64 {
	// RegFileBits per lane × lanes across subunits, moved at the VU's
	// load/store width (VUSubunits×VULanes×32 bits per cycle), save + restore.
	regBits := int64(c.VURegFileBits) * int64(c.VULanes)
	portBits := int64(c.VUSubunits) * int64(c.VULanes) * 32
	if portBits == 0 {
		return 1
	}
	cycles := (regBits + portBits - 1) / portBits
	return 2 * (cycles + 1) // +1 for the PC, ×2 for save and restore
}

// PMTContextSwitch models the baseline preemptive multitasking (PREMA-style)
// context switch, which swaps the entire NPU-core state through HBM. The
// paper measures 20–40 µs; jitter selects within that range (0 ≤ jitter ≤ 1).
func (c CoreConfig) PMTContextSwitchCycles(jitter float64) int64 {
	if jitter < 0 {
		jitter = 0
	}
	if jitter > 1 {
		jitter = 1
	}
	// Each conversion rounds a product before it is added or subtracted, so
	// no architecture may fuse the two into one multiply-add.
	lo := float64(20 * c.CyclesPerMicrosecond())
	hi := float64(40 * c.CyclesPerMicrosecond())
	return int64(lo + float64((hi-lo)*jitter))
}
