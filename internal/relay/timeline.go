package relay

import (
	"repro/internal/minic/ast"
	"repro/internal/minic/types"
)

// main runs exactly once and its body top level executes sequentially, so
// the top-level statement index of main is a timeline: everything inside
// statement i happens-before everything inside statement j > i. The MHP
// fork/join analysis (internal/mhp) and the precision layer's
// read-only-sharing check (internal/escape) both place events on it.

// MainTimeline indexes main's body as that timeline. index maps every AST
// node in main's body to the index of the top-level statement containing
// it; reach maps a function to the set of top-level statement indices
// whose call closure (CallClosure) reaches it.
func (r *Report) MainTimeline(main *types.FuncInfo) (index map[ast.NodeID]int, reach map[*types.FuncInfo]map[int]bool) {
	index = make(map[ast.NodeID]int)
	reach = make(map[*types.FuncInfo]map[int]bool)
	for i, s := range main.Decl.Body.Stmts {
		for f := range r.CallClosure(s, func(n ast.Node) { index[n.ID()] = i }) {
			if reach[f] == nil {
				reach[f] = make(map[int]bool)
			}
			reach[f][i] = true
		}
	}
	return index, reach
}

// CallClosure returns the functions the calls under n may run, closed
// over call edges. Spawn edges are excluded: a spawned function's work
// belongs to the child thread, not to n. visit, when non-nil, sees every
// node under n.
func (r *Report) CallClosure(n ast.Node, visit func(ast.Node)) map[*types.FuncInfo]bool {
	seen := make(map[*types.FuncInfo]bool)
	var dfs func(f *types.FuncInfo)
	dfs = func(f *types.FuncInfo) {
		if f == nil || seen[f] {
			return
		}
		seen[f] = true
		for _, callee := range r.CG.CalleesOf(f) {
			dfs(callee)
		}
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if visit != nil {
			visit(x)
		}
		if call, ok := x.(*ast.Call); ok {
			for _, f := range r.callTargets(call) {
				dfs(f)
			}
		}
		return true
	})
	return seen
}

// callTargets resolves the non-builtin functions a call may invoke.
func (r *Report) callTargets(call *ast.Call) []*types.FuncInfo {
	if target := r.Info.CallTargets[call.ID()]; target != nil {
		if target.Kind == types.ObjFunc {
			return []*types.FuncInfo{r.Info.Funcs[target.Name]}
		}
		return nil // builtin
	}
	return r.PTA.CallTargets[call.ID()]
}
