// Morsel-driven parallelization of vectorized plans. After a query is
// planned serially, the planner looks for one parallel site — the highest
// streaming subtree whose probe spine bottoms out in a columnar scan big
// enough to morsel — and replaces it with an Exchange over N
// independently planned replicas of the same subtree (compiled batch
// expressions carry per-instance scratch state, so workers can never
// share one tree). The exchange emits whole morsels in dispatch order, so
// the aggregates, sorts and other materializing operators above it run
// serially over exactly the rows, in exactly the order, of the serial
// plan.
//
// Worker 0 runs on the consumer's goroutine, so N workers are N
// goroutines doing work. Every hash join on the replicated probe spine
// has one build: worker 0 builds it once, under its own reservation, and
// publishes its runtime filters once; the other replicas probe that
// table read-only and their driver scans test worker 0's filters. A
// shared build that would go Grace degrades the exchange to worker 0
// alone — the serial plan — so no spine join spills inside a worker.
//
// Replication is validated, not assumed: every replica must render to
// the same plan shape and its driver scan must see the same columnar
// snapshot (pointer-identical vectors — SnapshotColumns caches per heap
// version); any mismatch falls back to the serial plan.
package plan

import (
	"perm/internal/algebra"
	"perm/internal/obs"
	"perm/internal/vexec"
)

// SetParallelism sets the worker count for intra-query parallelism
// (values below 2 plan serially).
func (p *Planner) SetParallelism(n int) *Planner {
	p.parallelism = n
	return p
}

// parallelize rewrites the plan's vectorized tree around one parallel
// site, replanning the query once per extra worker. Any irregularity —
// replica shape drift, a snapshot change between replans, an ineligible
// spine — leaves the serial plan untouched.
func (p *Planner) parallelize(q *algebra.Query, pl *planned) {
	site, depth := findSite(pl.vnode, 0)
	if site == nil {
		return
	}
	driver0 := vexec.SpineDriver(site)
	shape := vnodeShape(pl.vnode)
	sites := []vexec.Node{site}
	for i := 1; i < p.parallelism; i++ {
		rpl, err := p.planQuery(q)
		if err != nil || rpl.vnode == nil || vnodeShape(rpl.vnode) != shape {
			obs.SerialFallbacks.Inc()
			return
		}
		rsite := nthWrapperChild(rpl.vnode, depth)
		if rsite == nil {
			obs.SerialFallbacks.Inc()
			return
		}
		rdriver := vexec.SpineDriver(rsite)
		if rdriver == nil || !sameSnapshot(driver0, rdriver) {
			obs.SerialFallbacks.Inc()
			return
		}
		sites = append(sites, rsite)
	}
	obs.ParallelPlans.Inc()
	obs.ParallelWorkers.Add(int64(len(sites)))
	pn := vexec.NewExchange(sites)
	if p.activity != nil {
		pn.AQ = p.activity
		p.activity.SetMorselTotal(pn.Morsels())
	}
	// The exchange emits exactly what the serial site it replaces would
	// have: carry the site's cardinality estimate over.
	if c, ok := site.(interface{ EstimatedRows() float64 }); ok {
		setEstNode(pn, c.EstimatedRows())
	}
	if depth == 0 {
		pl.vnode = pn
		return
	}
	*wrapperSlot(nthWrapperChild(pl.vnode, depth-1)) = pn
}

// findSite walks down through materializing and order-restoring
// wrappers to the highest streaming subtree worth an exchange (nil when
// there is none). depth counts wrapper hops so the same position can be
// replayed in a replica plan.
func findSite(n vexec.Node, depth int) (vexec.Node, int) {
	switch n.(type) {
	case *vexec.HashAgg, *vexec.VecSort, *vexec.VecTopN, *vexec.VecLimit, *vexec.VecDistinct,
		*vexec.VecSetOp, *vexec.AggAttach:
		// Never a site themselves: look below. (Each runs once, over an
		// exchange of its input.)
	default:
		// Scans, filters, projections and joins: the spine itself.
		if eligibleSpine(n) {
			return n, depth
		}
	}
	if slot := wrapperSlot(n); slot != nil {
		return findSite(*slot, depth+1)
	}
	return nil, 0
}

// eligibleSpine reports whether a subtree's probe spine reaches a
// columnar scan with enough rows to be worth morseling.
func eligibleSpine(n vexec.Node) bool {
	d := vexec.SpineDriver(n)
	return d != nil && d.NumRows >= vexec.ParallelMinRows
}

// nthWrapperChild replays a findSite descent on another tree: starting
// at root, take the wrapper child depth times. Shape equality between
// the trees guarantees the same node types appear at every hop.
func nthWrapperChild(n vexec.Node, depth int) vexec.Node {
	for ; depth > 0 && n != nil; depth-- {
		slot := wrapperSlot(n)
		if slot == nil {
			return nil
		}
		n = *slot
	}
	return n
}

// wrapperSlot returns the child slot findSite descends through: an
// operator's first (for joins and set operations, left) input. Scans and
// exchanges have none.
func wrapperSlot(n vexec.Node) *vexec.Node {
	if d := describeV(n); !d.workers {
		return d.vkids[0]
	}
	return nil
}

// vnodeShape renders a vectorized tree to its EXPLAIN string, the
// structural fingerprint replicas are validated against.
func vnodeShape(n vexec.Node) string {
	var sb []byte
	walkV(n, 0, func(d op) { sb = d.appendLine(sb, "") })
	return string(sb)
}

// sameSnapshot reports whether two scans read the identical columnar
// snapshot. SnapshotColumns caches pointer-stable vectors per heap
// version, so pointer equality is exact: any DML between replans yields
// fresh vectors and fails the check.
func sameSnapshot(a, b *vexec.ColScan) bool {
	if a.NumRows != b.NumRows || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	return true
}
