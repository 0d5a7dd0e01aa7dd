package trace

import (
	"fmt"
	"sync"

	"v10/internal/mathx"
)

// Workload is a deployed inference service: a model at a fixed batch size
// that repeatedly serves requests. Request graphs vary slightly from request
// to request (input-dependent operator lengths), produced deterministically
// by the generator.
type Workload struct {
	Name     string  // display name, e.g. "BERT-b32"
	Model    string  // model family, e.g. "BERT"
	Batch    int     // inference batch size
	Priority float64 // relative scheduling priority (> 0); 1 is default

	genInto func(request int, g *Graph) *Graph
	profile *profileMemo // shared by every shallow copy (same generator)
}

// profileMemo holds the ComputeStats of a workload's leading requests, in
// request order. The generator is deterministic, so an entry never goes stale.
type profileMemo struct {
	mu    sync.Mutex
	stats []Stats
}

// NewWorkload builds a workload around a request-graph generator. gen must be
// deterministic in its argument and may return shared graphs: each request's
// Ops are copied, in ID order (LinearizeInto), into the caller's scratch
// graph, so the caller owns every graph Request and RequestInto return (the
// Deps slices stay shared with gen's graph and must not be modified).
// Priority defaults to 1.
func NewWorkload(name, model string, batch int, gen func(request int) *Graph) *Workload {
	if gen == nil {
		panic("trace: nil workload generator")
	}
	return NewWorkloadReusable(name, model, batch, func(i int, g *Graph) *Graph {
		if g == nil {
			g = &Graph{}
		}
		g.Ops = gen(i).LinearizeInto(g.Ops[:0])
		return g
	})
}

// WithPriority returns a shallow copy of w with the given priority.
func (w *Workload) WithPriority(p float64) *Workload {
	if p <= 0 {
		panic(fmt.Sprintf("trace: non-positive priority %v", p))
	}
	c := *w
	c.Priority = p
	return &c
}

// NewWorkloadReusable builds a workload around a buffer-reusing generator:
// genInto must produce the i-th request graph into g (reusing g.Ops and
// g.DepsBuf when non-nil; allocating a fresh graph when g is nil), with its
// Ops in ID order, and return it. genInto must be deterministic in its request
// argument and safe for concurrent callers with distinct scratch graphs (the
// fleet runs cores in parallel against shared Workload values). It may
// memoize graphs across calls if every call still returns the same graph for
// the same request and the returned Ops are the caller's own; the Deps slices
// may be shared with the memo, as with NewWorkload, and must not be modified.
func NewWorkloadReusable(name, model string, batch int, genInto func(request int, g *Graph) *Graph) *Workload {
	if genInto == nil {
		panic("trace: nil workload generator")
	}
	return &Workload{Name: name, Model: model, Batch: batch, Priority: 1,
		genInto: genInto, profile: &profileMemo{}}
}

// Request returns the operator graph for the i-th request (0-based) in fresh
// storage.
func (w *Workload) Request(i int) *Graph {
	return w.genInto(i, nil)
}

// RequestInto returns the i-th request graph, reusing the caller-owned
// scratch graph g (nil allocates a fresh one). The returned graph's Ops are
// private to the caller and in ID order: it is safe to alias them and to pass
// the graph back as scratch for the next request. The boolean is always true;
// it remains only for existing callers.
func (w *Workload) RequestInto(i int, g *Graph) (*Graph, bool) {
	return w.genInto(i, g), true
}

// ProfileStats returns the ComputeStats of requests 0..n-1, the offline
// profile that collocation features and service-time estimates read. Each
// request is synthesized at most once per generator: the stats are memoized
// on the workload and shared by its shallow copies (WithPriority). It is safe
// for concurrent use: the memo's lock is held while missing requests are
// synthesized, so concurrent callers never synthesize one twice (the
// generator must therefore not call ProfileStats itself). The returned slice
// is shared and must not be modified. n <= 0 returns an empty profile.
func (w *Workload) ProfileStats(n int) []Stats {
	n = max(n, 0)
	m := w.profile
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.stats) < n {
		scratch := &Graph{}
		for r := len(m.stats); r < n; r++ {
			g, _ := w.RequestInto(r, scratch)
			m.stats = append(m.stats, g.ComputeStats())
		}
	}
	return m.stats[:n:n]
}

// TileOf is the vector-memory tiling rule for one operator. An operator whose
// footprint exceeds partition bytes is split into k equal tiles executed back
// to back; each reload of intermediate data from HBM loses on-chip reuse, so
// its total HBM traffic grows by reloadFactor per extra tile (the Fig. 24
// effect). first is the first tile, which also carries the Compute%k and
// Stall%k remainders; rest is each of the other k-1 tiles (equal to first
// when k = 1). Both keep op's ID and Deps for the caller to place. An
// operator that fits is one tile of its own fields at any finite
// reloadFactor; partition <= 0 returns op itself as its one tile.
func TileOf(op Op, partition int64, reloadFactor float64) (k int64, first, rest Op) {
	if partition <= 0 {
		return 1, op, op
	}
	k = tilesFor(op, partition)
	setTile(&first, &op, k, 0, partition, reloadFactor)
	setTile(&rest, &op, k, 1, partition, reloadFactor)
	return k, first, rest
}

// setTile writes tile t of op's k tiles into dst, keeping op's ID and Deps.
// It is TileOf's rule, written field by field into place so that
// TileForVMemInto fills its output without copying whole operators; it sets
// every field of Op.
func setTile(dst, op *Op, k, t, partition int64, reloadFactor float64) {
	// The conversion rounds the product before it is summed, so no
	// architecture may fuse the two into one multiply-add.
	totalHBM := op.HBMBytes * (1 + float64(reloadFactor*float64(k-1)))
	dst.ID = op.ID
	dst.Kind = op.Kind
	dst.Compute = op.Compute / k
	dst.Stall = op.Stall / k
	if t == 0 {
		// The first tile carries the rounding remainders.
		dst.Compute += op.Compute % k
		dst.Stall += op.Stall % k
	}
	dst.Efficiency = op.Efficiency
	dst.FLOPs = op.FLOPs / float64(k)
	dst.HBMBytes = totalHBM / float64(k)
	dst.VMemBytes = mathx.MinInt64(op.VMemBytes, partition)
	dst.Deps = op.Deps
}

// TileForVMemInto rewrites g so that no operator's vector-memory footprint
// exceeds partition bytes, splitting each oversized operator by TileOf into
// a chain of tiles. The tiled graph is written into dst, whose Ops, DepsBuf
// and remap storage are reused (a nil dst allocates a fresh graph). It
// returns g itself, leaving dst untouched, when no operator needs tiling or
// partition <= 0. dst must not be g; g is never modified.
func TileForVMemInto(dst, g *Graph, partition int64, reloadFactor float64) *Graph {
	if partition <= 0 {
		return g
	}
	// Size the output up front: k tiles per operator, the first carrying the
	// operator's remapped Deps and each later one a single chain edge.
	nOps, nDeps := 0, 0
	for _, op := range g.Ops {
		k := tilesFor(op, partition)
		nOps += int(k)
		nDeps += len(op.Deps) + int(k) - 1
	}
	if nOps == len(g.Ops) {
		return g
	}
	if dst == nil {
		dst = &Graph{}
	}
	dst.Ops = resize(dst.Ops, nOps)[:0]
	dst.DepsBuf = resize(dst.DepsBuf, nDeps)[:0]
	// remap[oldID] = new ID of the final tile of that operator.
	remap := resize(dst.remap, len(g.Ops))
	clear(remap) // an out-of-order Dep reads 0, as from fresh storage
	dst.remap = remap
	for i := range g.Ops {
		op := &g.Ops[i]
		k := tilesFor(*op, partition)
		start := len(dst.DepsBuf)
		for _, d := range op.Deps {
			dst.DepsBuf = append(dst.DepsBuf, remap[d])
		}
		deps := dst.DepsBuf[start:len(dst.DepsBuf):len(dst.DepsBuf)]
		for t := int64(0); t < k; t++ {
			if t > 0 {
				// Later tiles chain on the previous tile.
				dst.DepsBuf = append(dst.DepsBuf, len(dst.Ops)-1)
				n := len(dst.DepsBuf)
				deps = dst.DepsBuf[n-1 : n : n]
			}
			n := len(dst.Ops)
			dst.Ops = dst.Ops[:n+1] // within the capacity sized above
			tile := &dst.Ops[n]
			setTile(tile, op, k, t, partition, reloadFactor)
			tile.ID, tile.Deps = n, deps
		}
		remap[op.ID] = len(dst.Ops) - 1
	}
	return dst
}

// tilesFor returns how many partition-sized tiles op splits into.
func tilesFor(op Op, partition int64) int64 {
	if op.VMemBytes > partition {
		return (op.VMemBytes + partition - 1) / partition
	}
	return 1
}

// resize returns buf with length n, reusing its backing array when it is
// large enough. Reused elements keep stale values for the caller to overwrite.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
