// Package systolic is a functional, cycle-accurate model of the NPU's
// weight-stationary systolic array (paper §2.1, Fig. 2) and of V10's SA
// operator preemption mechanism (§3.3, Fig. 13).
//
// The array is a dim×dim grid of processing elements. PE(i,j) holds weight
// w[i][j]; activations flow left→right, partial sums flow top→bottom. Input
// row r enters the left edge skewed (element i at cycle r+i), and result
// element C[r][j] pops from the bottom of column j at cycle r+dim-1+j+1.
// At small dims this reproduces exactly the timeline of the paper's Fig. 13
// 3×3 example, and it validates the §3.3 claims from first principles:
//
//   - a context switch exposes 3×dim cycles (dim weight swap + 2×dim
//     pipeline refill), with the drain fully overlapped with useful output;
//   - only 2-byte inputs (≤ 2×dim rows) and weights are checkpointed —
//     never the 4-byte partial sums — giving the paper's 96 KB at dim=128,
//     25% below the naive 128 KB drain.
package systolic

import (
	"errors"
	"fmt"

	"v10/internal/bf16"
)

// Array executes matrix multiplications C = A·W for a stationary dim×dim
// weight matrix W and streamed input rows A.
type Array struct {
	dim     int
	weights [][]float32
	cycles  int64
}

// New returns an idle dim×dim array.
func New(dim int) *Array {
	if dim <= 0 {
		panic("systolic: non-positive dimension")
	}
	return &Array{dim: dim}
}

// Dim returns the array dimension.
func (a *Array) Dim() int { return a.dim }

// Cycles returns the cycles consumed so far (weight loads + streaming).
func (a *Array) Cycles() int64 { return a.cycles }

// LoadWeights installs W into the PEs, costing dim cycles (the weight rows
// stream down the array). Weights are quantized to bfloat16 on the way in,
// as in the real hardware (§3.3 footnote 2).
func (a *Array) LoadWeights(w [][]float32) error {
	if err := a.checkMatrix(w); err != nil {
		return err
	}
	a.weights = make([][]float32, a.dim)
	for i := range w {
		a.weights[i] = bf16.QuantizeSlice(append([]float32(nil), w[i]...))
	}
	a.cycles += int64(a.dim)
	return nil
}

func (a *Array) checkMatrix(m [][]float32) error {
	if len(m) != a.dim {
		return fmt.Errorf("systolic: matrix has %d rows, want %d", len(m), a.dim)
	}
	for i, row := range m {
		if len(row) != a.dim {
			return fmt.Errorf("systolic: row %d has %d cols, want %d", i, len(row), a.dim)
		}
	}
	return nil
}

// Weights returns a copy of the currently loaded weights (nil if none).
func (a *Array) Weights() [][]float32 {
	if a.weights == nil {
		return nil
	}
	out := make([][]float32, a.dim)
	for i := range a.weights {
		out[i] = append([]float32(nil), a.weights[i]...)
	}
	return out
}

// grid simulates the PE array cycle by cycle. act/psum hold the values
// latched at the end of the previous cycle.
type grid struct {
	dim       int
	w         [][]float32
	act       [][]float32
	actValid  [][]bool
	psum      [][]float32
	psumValid [][]bool
}

func newGrid(dim int, w [][]float32) *grid {
	g := &grid{dim: dim, w: w}
	g.act = make2d(dim)
	g.psum = make2d(dim)
	g.actValid = make2db(dim)
	g.psumValid = make2db(dim)
	return g
}

func make2d(d int) [][]float32 {
	m := make([][]float32, d)
	for i := range m {
		m[i] = make([]float32, d)
	}
	return m
}

func make2db(d int) [][]bool {
	m := make([][]bool, d)
	for i := range m {
		m[i] = make([]bool, d)
	}
	return m
}

// step advances one cycle. edge[i] is the (possibly invalid) activation
// entering row i this cycle. It returns the valid outputs leaving the bottom
// edge this cycle as (column, value) pairs.
func (g *grid) step(edge []float32, edgeValid []bool) (cols []int, vals []float32) {
	d := g.dim
	newAct := make2d(d)
	newActValid := make2db(d)
	newPsum := make2d(d)
	newPsumValid := make2db(d)

	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			var inAct float32
			var inValid bool
			if j == 0 {
				inAct, inValid = edge[i], edgeValid[i]
			} else {
				inAct, inValid = g.act[i][j-1], g.actValid[i][j-1]
			}
			newAct[i][j] = inAct
			newActValid[i][j] = inValid

			var up float32
			var upValid bool
			if i > 0 {
				up, upValid = g.psum[i-1][j], g.psumValid[i-1][j]
			}
			if inValid {
				// float32(...) rounds the product, so no architecture fuses a multiply-add.
				newPsum[i][j] = up + float32(g.w[i][j]*inAct)
				newPsumValid[i][j] = true
			} else {
				// Bubble: forward the partial sum unchanged.
				newPsum[i][j] = up
				newPsumValid[i][j] = upValid
			}
		}
	}
	g.act, g.actValid = newAct, newActValid
	g.psum, g.psumValid = newPsum, newPsumValid

	for j := 0; j < d; j++ {
		if g.psumValid[d-1][j] {
			cols = append(cols, j)
			vals = append(vals, g.psum[d-1][j])
		}
	}
	return cols, vals
}

// Stream multiplies the input rows by the loaded weights, pushing one row
// per cycle and running until the pipeline drains. It returns the result
// rows and advances the cycle counter by the exact pipeline occupancy.
func (a *Array) Stream(rows [][]float32) ([][]float32, error) {
	out, _, err := a.stream(rows, -1)
	return out, err
}

// Checkpoint is the §3.3 preemption context: the stationary weights plus the
// input rows that had left vector memory but whose results had not fully
// drained when the preemption was invoked. Partial sums are never saved.
type Checkpoint struct {
	Weights     [][]float32
	SavedInputs [][]float32 // rows to replay on resume
	NextRow     int         // index of the first row in SavedInputs
	DoneRows    int         // result rows already produced before the switch
}

// ContextBytes returns the vector-memory footprint of the checkpoint using
// the paper's 2-byte bfloat16 encoding for inputs and weights.
func (c *Checkpoint) ContextBytes() int64 {
	var n int64
	for _, r := range c.SavedInputs {
		n += int64(len(r)) * 2
	}
	for _, r := range c.Weights {
		n += int64(len(r)) * 2
	}
	return n
}

// NaiveContextBytes is what draining the array directly would have to save:
// the full in-flight inputs and weights plus dim×dim float32 partial sums.
func (a *Array) NaiveContextBytes() int64 {
	d := int64(a.dim)
	return 2*d*d*2 + d*d*4
}

// Preempt streams rows but invokes a preemption after pushAt rows have been
// pushed (the preemption timer of §3.2 firing mid-operator). Following
// Fig. 13, the array keeps draining — producing valid output, no wasted
// cycles — while the not-yet-pushed window is redirected to vector memory,
// then the weights are swapped out. It returns the results produced before
// the switch and the checkpoint needed by Resume.
func (a *Array) Preempt(rows [][]float32, pushAt int) ([][]float32, *Checkpoint, error) {
	if pushAt < 0 || pushAt > len(rows) {
		return nil, nil, fmt.Errorf("systolic: preempt point %d out of range", pushAt)
	}
	done, _, err := a.stream(rows[:pushAt], -1)
	if err != nil {
		return nil, nil, err
	}
	// Save the diverted input window: everything already fetched from vmem
	// into the push FIFOs — at most 2×dim rows (skew depth + array depth).
	window := 2 * a.dim
	end := pushAt + window
	if end > len(rows) {
		end = len(rows)
	}
	saved := make([][]float32, 0, end-pushAt)
	for _, r := range rows[pushAt:end] {
		saved = append(saved, append([]float32(nil), r...))
	}
	cp := &Checkpoint{
		Weights:     a.Weights(),
		SavedInputs: saved,
		NextRow:     pushAt,
		DoneRows:    len(done),
	}
	// Weight save overlaps the incoming operator's weight load (Fig. 13
	// step 4); the exposed dim cycles are charged by that LoadWeights call.
	return done, cp, nil
}

// Resume restores a preempted operator: reload its weights (dim cycles),
// replay the saved input window, then continue with the remaining rows.
// rows must be the same input the operator was preempted from.
func (a *Array) Resume(cp *Checkpoint, rows [][]float32) ([][]float32, error) {
	if err := a.LoadWeights(cp.Weights); err != nil {
		return nil, err
	}
	// Replay: saved window first, then the untouched tail. The saved rows
	// are byte-identical to the original, so replay equals re-streaming
	// from NextRow.
	tail := rows[cp.NextRow:]
	for i, saved := range cp.SavedInputs {
		if i >= len(tail) {
			return nil, errors.New("systolic: checkpoint window exceeds remaining rows")
		}
		for j := range saved {
			// Compare in the bfloat16 domain: the checkpoint stores what the
			// hardware would have pushed.
			if bf16.Quantize(saved[j]) != bf16.Quantize(tail[i][j]) {
				return nil, errors.New("systolic: checkpoint does not match input rows")
			}
		}
	}
	return a.Stream(tail)
}

// SwitchOverheadCycles returns the exposed context-switch cost the paper
// derives for this array: dim cycles of weight swap plus 2×dim cycles of
// pipeline refill before the resumed operator pops outputs again — 384 for
// a 128×128 array.
func (a *Array) SwitchOverheadCycles() int64 { return int64(3 * a.dim) }

// stream pushes rows one per cycle (stopping input after stopAfter rows if
// stopAfter >= 0) and steps until the pipeline drains.
func (a *Array) stream(rows [][]float32, stopAfter int) ([][]float32, int64, error) {
	if a.weights == nil {
		return nil, 0, errors.New("systolic: stream before LoadWeights")
	}
	for i, r := range rows {
		if len(r) != a.dim {
			return nil, 0, fmt.Errorf("systolic: input row %d has %d cols, want %d", i, len(r), a.dim)
		}
	}
	n := len(rows)
	if stopAfter >= 0 && stopAfter < n {
		n = stopAfter
	}
	d := a.dim
	// Inputs are bfloat16 on the push FIFOs; partial sums stay float32.
	qrows := make([][]float32, n)
	for i := 0; i < n; i++ {
		qrows[i] = bf16.QuantizeSlice(append([]float32(nil), rows[i]...))
	}
	rows = qrows
	out := make([][]float32, n)
	for i := range out {
		out[i] = make([]float32, d)
	}
	g := newGrid(d, a.weights)

	edge := make([]float32, d)
	edgeValid := make([]bool, d)
	received := 0
	var t int64
	for received < n*d {
		// Element i of row r enters edge row i at cycle r+i.
		for i := 0; i < d; i++ {
			r := t - int64(i)
			if r >= 0 && r < int64(n) {
				edge[i] = rows[r][i]
				edgeValid[i] = true
			} else {
				edgeValid[i] = false
			}
		}
		cols, vals := g.step(edge, edgeValid)
		t++
		for k, j := range cols {
			// C[r][j] pops at cycle r+(d-1)+1 … account r from timing.
			r := t - int64(d) - int64(j)
			if r < 0 || r >= int64(n) {
				return nil, 0, fmt.Errorf("systolic: unexpected output timing (t=%d, j=%d)", t, j)
			}
			out[r][j] = vals[k]
			received++
		}
	}
	a.cycles += t
	return out, t, nil
}

// Reference computes what the hardware computes: bfloat16-quantized inputs
// times bfloat16-quantized weights with float32 accumulation. Use it as the
// golden model for Array results.
func Reference(rows, w [][]float32) [][]float32 {
	qw := make([][]float32, len(w))
	for i := range w {
		qw[i] = bf16.QuantizeSlice(append([]float32(nil), w[i]...))
	}
	qr := make([][]float32, len(rows))
	for i := range rows {
		qr[i] = bf16.QuantizeSlice(append([]float32(nil), rows[i]...))
	}
	return MatMul(qr, qw)
}

// MatMul is the exact float32 reference: C[r][j] = Σ_i rows[r][i]·W[i][j].
func MatMul(rows, w [][]float32) [][]float32 {
	out := make([][]float32, len(rows))
	for r := range rows {
		out[r] = make([]float32, len(w[0]))
		for i := range w {
			a := rows[r][i]
			if a == 0 {
				continue
			}
			for j := range w[i] {
				// float32(...) rounds the product, so no architecture fuses a multiply-add.
				out[r][j] += float32(a * w[i][j])
			}
		}
	}
	return out
}
