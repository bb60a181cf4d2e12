// Plan-health plumbing: harvesting per-operator (estimate, actual)
// pairs from an instrumented tree for the misestimation store, and the
// structural plan hash behind the plan-flip history.
package plan

import (
	"perm/internal/exec"
	"perm/internal/obs"
)

// OperatorEstimates harvests, after execution, one (operator label,
// estimated rows, actual rows) triple per probed operator that carries a
// planner estimate. The triples feed the per-fingerprint misestimation
// store behind perm_stat_estimates. Operators without an estimate or
// without a probe (parallel worker replicas) are skipped — their
// enclosing exchange is probed as a unit and reports for them.
func OperatorEstimates(n exec.Node) []obs.OpEst {
	var out []obs.OpEst
	walk(n, 0, func(d op) {
		if d.stats == nil {
			return
		}
		if est := estOf(d.node); est > 0 {
			out = append(out, obs.OpEst{Op: d.name, EstRows: est, ActRows: d.stats.Rows})
		}
	})
	return out
}

// Hash returns a structural fingerprint of a physical plan: FNV-64a over
// its EXPLAIN lines with every digit run collapsed to one mask byte, each
// scan's line followed by the name of the relation it reads. Masking
// digits keeps the hash stable across pure cardinality drift — scan row
// counts change with every DML, and a LIMIT constant is a literal, not a
// shape — while anything structural (operator choice, join order, build
// side, vectorized vs row placement, spill mode, runtime-filter wiring,
// parallel operators) changes the rendered text and therefore the hash.
// Scan names are folded in because EXPLAIN renders scans anonymously: a
// build-side swap between two equally-shaped scans moves which relation
// sits where, which only the names can distinguish. Computed on fresh
// compiles only, so the cache-hit hot path never renders a plan.
func Hash(n exec.Node) uint64 {
	h := fnvOffset64
	var line []byte
	walk(n, 0, func(d op) {
		line = d.appendLine(line[:0], "")
		inDigits := false
		for _, c := range line {
			if c >= '0' && c <= '9' {
				if !inDigits {
					h = fnvByte(h, '#')
					inDigits = true
				}
				continue
			}
			inDigits = false
			h = fnvByte(h, c)
		}
		if d.table != "" {
			h = fnvByte(h, 0)
			for i := 0; i < len(d.table); i++ {
				h = fnvByte(h, d.table[i])
			}
		}
	})
	return h
}

const (
	fnvOffset64 = uint64(14695981039346656037)
	fnvPrime64  = uint64(1099511628211)
)

func fnvByte(h uint64, c byte) uint64 {
	h ^= uint64(c)
	h *= fnvPrime64
	return h
}
