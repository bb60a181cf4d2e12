// Morsel-driven parallelization of vectorized plans. After a query is
// planned serially, the planner looks for one parallel site — the lowest
// subtree whose probe spine bottoms out in a columnar scan big enough to
// morsel — and replaces it with a parallel operator over N independently
// planned replicas of the same subtree (compiled batch expressions carry
// per-instance scratch state, so workers can never share one tree):
//
//   - a mergeable hash aggregate becomes a ParallelAgg (partial
//     aggregation per worker, partition-wise merge),
//   - a sort becomes a ParallelSort (worker runs + ordered fan-in),
//   - any other spine top gets an Exchange, which replays the serial
//     output stream from sequence-tagged worker batches. Aggregates the
//     merge cannot reproduce bit-exactly (float SUM/AVG, where partial
//     reassociation would change the formatted output) keep serial
//     accumulation and get the Exchange below them instead.
//
// Replication is validated, not assumed: every replica must render to
// the same plan shape and its driver scan must see the same columnar
// snapshot (pointer-identical vectors — SnapshotColumns caches per heap
// version); any mismatch falls back to the serial plan. Each replica is
// planned with its own spill reservations, so worker memory draws
// against the session budget exactly like serial operators and spilling
// composes with parallelism instead of escaping the governor.
package plan

import (
	"perm/internal/algebra"
	"perm/internal/obs"
	"perm/internal/types"
	"perm/internal/vexec"
)

// SetParallelism sets the worker count for intra-query parallelism
// (values below 2 plan serially).
func (p *Planner) SetParallelism(n int) *Planner {
	p.parallelism = n
	return p
}

// siteKind classifies what the parallel operator at a site will be.
type siteKind int

const (
	siteNone     siteKind = iota
	siteExchange          // replicate the subtree, merge its output stream
	siteAgg               // partial aggregation per worker, merged
	siteSort              // sorted runs per worker, merged
)

// parallelize rewrites the plan's vectorized tree around one parallel
// site, replanning the query once per extra worker. Any irregularity —
// replica shape drift, a snapshot change between replans, an ineligible
// spine — leaves the serial plan untouched.
func (p *Planner) parallelize(q *algebra.Query, pl *planned) {
	site, kind, depth := findSite(pl.vnode, 0)
	if kind == siteNone {
		return
	}
	driver0 := spineDriver(siteSpine(site, kind))
	shape := vnodeShape(pl.vnode)
	sites := []vexec.Node{site}
	drivers := []*vexec.ColScan{driver0}
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
		rdriver := spineDriver(siteSpine(rsite, kind))
		if rdriver == nil || !sameSnapshot(driver0, rdriver) {
			obs.SerialFallbacks.Inc()
			return
		}
		sites = append(sites, rsite)
		drivers = append(drivers, rdriver)
	}
	obs.ParallelPlans.Inc()
	obs.ParallelWorkers.Add(int64(len(sites)))
	disp := vexec.NewMorsels(driver0.NumRows)
	if p.activity != nil {
		disp.AQ = p.activity
		p.activity.SetMorselTotal(disp.Total())
	}
	var pn vexec.Node
	switch kind {
	case siteExchange:
		srcs := make([]vexec.TagSource, len(sites))
		for i, s := range sites {
			srcs[i] = wireSpineTags(s)
		}
		pn = vexec.NewExchange(sites, drivers, srcs, disp)
	case siteAgg:
		aggs := make([]*vexec.HashAgg, len(sites))
		srcs := make([]vexec.TagSource, len(sites))
		for i, s := range sites {
			aggs[i] = s.(*vexec.HashAgg)
			srcs[i] = wireSpineTags(aggs[i].Input)
		}
		pn = vexec.NewParallelAgg(aggs, drivers, srcs, disp)
	case siteSort:
		sorts := make([]*vexec.VecSort, len(sites))
		srcs := make([]vexec.TagSource, len(sites))
		for i, s := range sites {
			sorts[i] = s.(*vexec.VecSort)
			srcs[i] = wireSpineTags(sorts[i].Input)
		}
		pn = vexec.NewParallelSort(sorts, drivers, srcs, disp)
	}
	// The parallel operator emits exactly what the serial site it
	// replaces would have: carry the site's cardinality estimate over.
	if c, ok := site.(interface{ EstimatedRows() float64 }); ok {
		setEstNode(pn, c.EstimatedRows())
	}
	if depth == 0 {
		p.setVNode(pl, pn)
		if c, ok := pn.(interface{ EstimatedRows() float64 }); ok {
			setEstNode(pl.node, c.EstimatedRows())
		}
		return
	}
	*wrapperSlot(nthWrapperChild(pl.vnode, depth-1)) = pn
}

// findSite walks down through order-restoring wrappers to the highest
// parallelizable operator. depth counts wrapper hops so the same
// position can be replayed in a replica plan.
func findSite(n vexec.Node, depth int) (vexec.Node, siteKind, int) {
	switch x := n.(type) {
	case *vexec.HashAgg:
		if aggsMergeExact(x.Aggs) && eligibleSpine(x.Input) {
			return n, siteAgg, depth
		}
	case *vexec.VecSort:
		if eligibleSpine(x.Input) {
			return n, siteSort, depth
		}
	case *vexec.VecTopN, *vexec.VecLimit, *vexec.VecDistinct, *vexec.VecSetOp, *vexec.AggAttach:
		// Never a site themselves: look below. (A join-back's aggregate
		// runs once, over an exchange of its input.)
	default:
		// Scans, filters, projections and joins: the spine itself.
		if eligibleSpine(n) {
			return n, siteExchange, depth
		}
	}
	if slot := wrapperSlot(n); slot != nil {
		return findSite(*slot, depth+1)
	}
	return nil, siteNone, 0
}

// siteSpine returns the probe spine a site's morsels flow through: the
// site itself for an exchange, the operator's input for agg and sort.
func siteSpine(site vexec.Node, kind siteKind) vexec.Node {
	switch kind {
	case siteAgg:
		if a, ok := site.(*vexec.HashAgg); ok {
			return a.Input
		}
		return nil
	case siteSort:
		if s, ok := site.(*vexec.VecSort); ok {
			return s.Input
		}
		return nil
	}
	return site
}

// eligibleSpine reports whether a subtree's probe spine reaches a
// columnar scan with enough rows to be worth morseling.
func eligibleSpine(n vexec.Node) bool {
	d := spineDriver(n)
	return d != nil && d.NumRows >= vexec.ParallelMinRows
}

// spineDriver descends the streaming probe spine — filter and projection
// inputs, the probe (left) side of joins — to the driver columnar scan.
// Anything else breaks the spine (nil).
func spineDriver(n vexec.Node) *vexec.ColScan {
	switch x := n.(type) {
	case *vexec.ColScan:
		return x
	case *vexec.Filter:
		return spineDriver(x.Input)
	case *vexec.Project:
		return spineDriver(x.Input)
	case *vexec.HashJoin:
		return spineDriver(x.Left)
	case *vexec.NLJoin:
		return spineDriver(x.Left)
	case *vexec.MorselTap:
		// Wired worker pipelines (ParallelAgg/ParallelSort inputs) carry a
		// tap above the spine; EXPLAIN ANALYZE walks through it to reach
		// the driver scan for per-worker morsel counts.
		return spineDriver(x.Input)
	}
	return nil
}

// wireSpineTags threads the morsel tag chain through a worker spine:
// each spine hash join learns the nearest tag source below its probe
// side (so Grace mode can keep globally ordered sequence tags), and the
// topmost source is what the worker's tap reads.
func wireSpineTags(n vexec.Node) vexec.TagSource {
	switch x := n.(type) {
	case *vexec.ColScan:
		return x
	case *vexec.Filter:
		return wireSpineTags(x.Input)
	case *vexec.Project:
		return wireSpineTags(x.Input)
	case *vexec.HashJoin:
		x.TagSrc = wireSpineTags(x.Left)
		return x
	case *vexec.NLJoin:
		return wireSpineTags(x.Left)
	}
	return nil
}

// aggsMergeExact reports whether partial aggregation merges to exactly
// the serial result. COUNT, MIN and MAX always do; SUM and AVG only over
// non-float arguments — float addition is not associative, and since
// results are formatted with strconv's shortest representation, even a
// 1-ulp reassociation difference would be visible. Float SUM/AVG keeps
// serial accumulation (the planner puts the exchange below the agg).
func aggsMergeExact(aggs []vexec.AggSpec) bool {
	for i := range aggs {
		switch aggs[i].Fn {
		case algebra.AggSum, algebra.AggAvg:
			if aggs[i].Arg == nil || aggs[i].Arg.Kind() == types.KindFloat {
				return false
			}
		}
	}
	return true
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
// parallel operators have none.
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
