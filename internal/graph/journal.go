package graph

import "sync"

// The change journal: every cost-epoch advance appends one record naming
// the element whose cost or block state changed, in the same critical
// section as the advance. A shortest-path tree computed at epoch e plus
// the records since e is enough to repair that tree instead of
// recomputing it (see Repair); a tree older than the journal's window
// falls back to a full run.

// changeKind says what one epoch advance changed.
type changeKind uint8

const (
	// changeEdge: an edge's cost or its block state (failure or mask).
	changeEdge changeKind = iota + 1
	// changeNode: a node's block state.
	changeNode
	// changeNodeCost: a node's setup cost. Shortest-path trees run over
	// edge costs only, so these never make a tree stale.
	changeNodeCost
	// changeAll: anything may have changed (BumpCostEpoch, RestoreAll,
	// UnmaskAll).
	changeAll
)

// change is one journal record.
type change struct {
	kind changeKind
	id   int32
}

// journalCap bounds the journal. When it is full the older half is
// dropped, so the window always covers at least journalCap/2 advances.
const journalCap = 1 << 12

// journal is the graph's bounded change log. Invariant: base+len(recs)
// is the current cost epoch, and recs[i] took the epoch from base+i to
// base+i+1. Records are never modified in place — compaction copies the
// kept half to a fresh array — so a reader may keep a sub-slice it took
// under mu after releasing the lock.
type journal struct {
	mu   sync.Mutex
	base uint64
	recs []change
	// zero counts the edges whose cost is exactly 0. Zero-cost arcs make
	// the heap's settle order, not just the distances, decide parents,
	// which a local repair cannot reproduce.
	zero int
}

// bumpLocked appends c and advances the epoch. Callers hold jr.mu.
func (g *Graph) bumpLocked(c change) {
	j := &g.jr
	if len(j.recs) == journalCap {
		keep := journalCap / 2
		recs := make([]change, keep, journalCap)
		copy(recs, j.recs[journalCap-keep:])
		j.base += uint64(journalCap - keep)
		j.recs = recs
	}
	j.recs = append(j.recs, c)
	g.epoch.Add(1)
}

// bump advances the cost epoch once and journals why.
func (g *Graph) bump(c change) {
	g.jr.mu.Lock()
	g.bumpLocked(c)
	g.jr.mu.Unlock()
}

// changesSince returns the records of every epoch advance after since,
// and whether the graph has zero-cost edges. ok is false when the
// journal no longer covers since (or since never existed here).
func (g *Graph) changesSince(since uint64) (recs []change, zero, ok bool) {
	j := &g.jr
	j.mu.Lock()
	defer j.mu.Unlock()
	end := j.base + uint64(len(j.recs))
	if since < j.base || since > end {
		return nil, false, false
	}
	return j.recs[since-j.base:], j.zero > 0, true
}
