package graph

// RepairWork reports the region plus improved nodes of a's last
// successful Repair, for the external benchmarks.
func RepairWork(a *Arena) int { return a.rep.work }
