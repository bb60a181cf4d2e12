// Tree mutation, substitution and column-usage helpers used by the
// logical optimizer (package optimize) and other passes that rewrite
// query nodes in place.

package algebra

// EditOwnExprs applies an EditExpr transform, in place, to every
// expression site of the query node itself: target list, WHERE, GROUP BY,
// HAVING, ORDER BY, LIMIT/OFFSET and join conditions. It
// does not descend into range-table subqueries or sublink subqueries.
func (q *Query) EditOwnExprs(f func(Expr) Expr) {
	for i := range q.TargetList {
		q.TargetList[i].Expr = EditExpr(q.TargetList[i].Expr, f)
	}
	q.Where = EditExpr(q.Where, f)
	for i := range q.GroupBy {
		q.GroupBy[i] = EditExpr(q.GroupBy[i], f)
	}
	q.Having = EditExpr(q.Having, f)
	for i := range q.OrderBy {
		q.OrderBy[i].Expr = EditExpr(q.OrderBy[i].Expr, f)
	}
	q.Limit = EditExpr(q.Limit, f)
	q.Offset = EditExpr(q.Offset, f)
	for _, fi := range q.From {
		editFromItemConds(fi, f)
	}
}

func editFromItemConds(fi FromItem, f func(Expr) Expr) {
	j, ok := fi.(*FromJoin)
	if !ok {
		return
	}
	j.Cond = EditExpr(j.Cond, f)
	editFromItemConds(j.Left, f)
	editFromItemConds(j.Right, f)
}

// SubstituteVars rebuilds the expression, replacing every Var for which
// repl returns a non-nil expression. Replacement subtrees are inserted
// as-is (they are not themselves visited).
func SubstituteVars(e Expr, repl func(*Var) Expr) Expr {
	return MapExpr(e, func(x Expr) Expr {
		if v, ok := x.(*Var); ok {
			if r := repl(v); r != nil {
				return r
			}
		}
		return x
	})
}

// ColumnUses records which columns of each range-table entry the query's
// own expressions reference, indexed by range-table position. Sentinel
// indices (output and flat references, RT < 0) are excluded.
func (q *Query) ColumnUses() []Bits {
	uses := make([]Bits, len(q.RangeTable))
	q.VisitExprs(func(e Expr) {
		WalkExpr(e, func(x Expr) {
			if v, ok := x.(*Var); ok && v.RT >= 0 && v.RT < len(uses) {
				uses[v.RT].Add(v.Col)
			}
		})
	})
	return uses
}

// FromRTs collects into out the range-table indices referenced by the
// from-item tree.
func FromRTs(fi FromItem, out *Bits) {
	switch n := fi.(type) {
	case *FromRef:
		out.Add(n.RT)
	case *FromJoin:
		FromRTs(n.Left, out)
		FromRTs(n.Right, out)
	}
}

// ReplaceFromRef replaces the (unique) FromRef to rt in the forest with
// repl, reporting whether a reference was found.
func ReplaceFromRef(items []FromItem, rt int, repl FromItem) bool {
	for i, fi := range items {
		if r, ok := fi.(*FromRef); ok && r.RT == rt {
			items[i] = repl
			return true
		}
		if j, ok := fi.(*FromJoin); ok && replaceFromRefIn(j, rt, repl) {
			return true
		}
	}
	return false
}

func replaceFromRefIn(j *FromJoin, rt int, repl FromItem) bool {
	if r, ok := j.Left.(*FromRef); ok && r.RT == rt {
		j.Left = repl
		return true
	}
	if r, ok := j.Right.(*FromRef); ok && r.RT == rt {
		j.Right = repl
		return true
	}
	if l, ok := j.Left.(*FromJoin); ok && replaceFromRefIn(l, rt, repl) {
		return true
	}
	if r, ok := j.Right.(*FromJoin); ok && replaceFromRefIn(r, rt, repl) {
		return true
	}
	return false
}

// RenumberFrom rewrites every FromRef in the forest through the remap
// table (old range-table index → new index).
func RenumberFrom(items []FromItem, remap []int) {
	for _, fi := range items {
		renumberFromItem(fi, remap)
	}
}

func renumberFromItem(fi FromItem, remap []int) {
	switch n := fi.(type) {
	case *FromRef:
		n.RT = remap[n.RT]
	case *FromJoin:
		renumberFromItem(n.Left, remap)
		renumberFromItem(n.Right, remap)
	}
}
