package lint

// The shardsafe rule is the static half of the sharded engine's
// bit-identical guarantee (DESIGN.md §12–§13). Each stage of a cycle
// runs on every shard concurrently with no locks (the rule's messages
// call that region the compute phase); correctness rests on an
// ownership discipline — a shard writes only its own state, and
// cross-shard effects travel through the mailbox API committed in the
// cycle's last phase. That discipline used to be audited by humans; this
// rule machine-checks it on the call graph reachable from the
// //smartlint:shardentry roots:
//
//   - every write must land in shard-owned state: a local, a value of a
//     //smartlint:shardowned type, or one element of a
//     //smartlint:shardindexed per-entity array;
//   - writes to package-level variables, to shared struct fields
//     (anything else), or whole-field writes of shardindexed arrays are
//     flagged;
//   - goroutines, channels and sync primitives are banned outright in
//     the compute phase, even in packages the concurrency rule exempts
//     — the pool barrier is the only synchronization;
//   - //smartlint:shardsink functions (the mailbox API) are trusted
//     boundaries and not descended into;
//   - dynamic calls through named interfaces dispatch to every loaded
//     implementation; an unresolvable dynamic call is itself a finding,
//     because unchecked code in the compute phase is exactly the hole
//     the rule exists to close.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"smart/internal/order"
)

// CheckShardSafe runs the shardsafe rule over the program and returns
// the surviving diagnostics (sorted by position).
func (p *Program) CheckShardSafe() []Diagnostic {
	var entries []string
	for _, id := range order.Keys(p.ann.funcs) {
		if p.ann.funcs[id]["shardentry"] {
			entries = append(entries, id)
		}
	}
	var diags []Diagnostic
	visited := map[string]bool{}
	for _, entry := range entries {
		if node := p.fns[entry]; node != nil {
			p.shardWalk(node, entry, visited, &diags)
		}
	}
	sortDiagnostics(diags)
	return diags
}

// shardWalk visits node and everything reachable from it, checking each
// function once (the first entry to reach it is named in diagnostics).
func (p *Program) shardWalk(node *funcNode, entry string, visited map[string]bool, diags *[]Diagnostic) {
	if visited[node.id] {
		return
	}
	visited[node.id] = true
	pkg := node.pkg
	report := func(pos token.Pos, format string, args ...any) {
		if p.allowed(pkg, pos, RuleShardSafe) {
			return
		}
		at := pkg.Fset.Position(pos)
		msg := fmt.Sprintf(format, args...)
		*diags = append(*diags, Diagnostic{Path: at.Filename, Line: at.Line, Rule: RuleShardSafe,
			Message: fmt.Sprintf("%s in %s (reachable from shard entry %s)", msg, node.id, entry)})
	}
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n.Go, "go statement spawns a goroutine inside the shard compute phase: the pool barrier is the only synchronization")
		case *ast.SendStmt:
			report(n.Arrow, "channel send inside the shard compute phase: cross-shard effects must go through the mailbox API")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.OpPos, "channel receive inside the shard compute phase: cross-shard effects must go through the mailbox API")
			}
		case *ast.SelectStmt:
			report(n.Select, "select inside the shard compute phase: the pool barrier is the only synchronization")
		case *ast.SelectorExpr:
			if ident, ok := n.X.(*ast.Ident); ok {
				if pn, ok := pkg.Info.Uses[ident].(*types.PkgName); ok {
					switch pn.Imported().Path() {
					case "sync", "sync/atomic":
						report(n.Pos(), "%s.%s inside the shard compute phase: shard state must be plainly owned, not synchronized", pn.Imported().Name(), n.Sel.Name)
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				break
			}
			for _, lhs := range n.Lhs {
				if ok, detail := p.shardOwned(pkg, lhs); !ok {
					report(lhs.Pos(), "write to %s: the compute phase may only write shard-owned state", detail)
				}
			}
		case *ast.IncDecStmt:
			if ok, detail := p.shardOwned(pkg, n.X); !ok {
				report(n.X.Pos(), "write to %s: the compute phase may only write shard-owned state", detail)
			}
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					report(n.Range, "range over a channel inside the shard compute phase")
				}
			}
		case *ast.CallExpr:
			targets, unresolved := p.callTargets(pkg, call(n))
			if unresolved && !p.allowed(pkg, n.Pos(), RuleShardSafe) {
				at := pkg.Fset.Position(n.Pos())
				*diags = append(*diags, Diagnostic{Path: at.Filename, Line: at.Line, Rule: RuleShardSafe,
					Message: fmt.Sprintf("dynamic call cannot be resolved to any loaded implementation in %s (reachable from shard entry %s): annotate or allow it — unchecked code in the compute phase defeats the ownership audit", node.id, entry)})
			}
			if p.allowed(pkg, n.Pos(), RuleShardSafe) {
				break // suppressed call sites also suppress traversal
			}
			for _, id := range targets {
				if syncTarget(id) {
					report(n.Pos(), "call to %s inside the shard compute phase: shard state must be plainly owned, not synchronized", id)
					continue
				}
				p.descend(id, entry, visited, diags)
			}
			// Function values passed as arguments may be invoked by the
			// callee within the phase: audit them too.
			for _, arg := range n.Args {
				if id, ok := p.funcValueID(pkg, arg); ok {
					p.descend(id, entry, visited, diags)
				}
			}
		}
		return true
	})
}

// call exists to keep the type switch terse.
func call(n *ast.CallExpr) *ast.CallExpr { return n }

// syncTarget reports whether a resolved callee ID belongs to sync or
// sync/atomic — mutex methods on local values (mu.Lock()) resolve here
// even though no sync package qualifier appears at the call site.
func syncTarget(id string) bool {
	for _, prefix := range []string{"sync.", "(sync.", "sync/atomic.", "(sync/atomic."} {
		if strings.HasPrefix(id, prefix) {
			return true
		}
	}
	return false
}

// descend follows one call edge unless the callee is a trusted
// shardsink boundary or has no loaded body (stdlib and export-only
// functions are out of scope — they cannot touch simulator state).
func (p *Program) descend(id, entry string, visited map[string]bool, diags *[]Diagnostic) {
	if p.ann.fn(id, "shardsink") {
		return
	}
	if node := p.fns[id]; node != nil {
		p.shardWalk(node, entry, visited, diags)
	}
}

// shardOwned decides whether a write to e stays within the current
// shard's ownership. The detail string names the offending root when it
// does not.
func (p *Program) shardOwned(pkg *Package, e ast.Expr) (bool, string) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return true, ""
		}
		obj := pkg.Info.Uses[e]
		if obj == nil {
			obj = pkg.Info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return false, fmt.Sprintf("package-level variable %s", e.Name)
			}
		}
		return true, "" // locals and parameters
	case *ast.SelectorExpr:
		base := pkg.Info.TypeOf(e.X)
		if named := namedOf(base); named != nil && p.ann.typ(typeID(named.Obj()), "shardowned") {
			return true, ""
		}
		if sel, ok := pkg.Info.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok && p.ann.field(v, "shardindexed") {
				return false, fmt.Sprintf("shard-indexed field %s as a whole (only element writes are shard-local)", e.Sel.Name)
			}
		}
		return false, fmt.Sprintf("field %s of non-shard-owned type %s", e.Sel.Name, typeName(base))
	case *ast.IndexExpr:
		if se, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
			if sel, ok := pkg.Info.Selections[se]; ok {
				if v, ok := sel.Obj().(*types.Var); ok && p.ann.field(v, "shardindexed") {
					return true, "" // one element of a per-entity array
				}
			}
		}
		return p.shardOwned(pkg, e.X)
	case *ast.StarExpr:
		if pt, ok := pkg.Info.TypeOf(e.X).Underlying().(*types.Pointer); ok {
			if named := namedOf(pt.Elem()); named != nil && p.ann.typ(typeID(named.Obj()), "shardowned") {
				return true, ""
			}
			return false, fmt.Sprintf("dereference of pointer to non-shard-owned type %s", typeName(pt.Elem()))
		}
		return false, "dereference of non-pointer"
	}
	return false, "unsupported write target"
}

// typeName renders t compactly for diagnostics.
func typeName(t types.Type) string {
	if t == nil {
		return "<unknown>"
	}
	if named := namedOf(t); named != nil {
		return named.Obj().Name()
	}
	return t.String()
}
