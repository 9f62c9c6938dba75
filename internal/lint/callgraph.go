package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the whole-program half of the engine: a static call
// graph over every loaded package, resolved without go/ssa (the repo's
// zero-dependency rule) from the go/types information the loader
// already produces. The hotpath and snapshotatomic analyzers walk it to
// turn per-function observations into whole-program proofs.
//
// Resolution is deliberately conservative (over-approximate): an edge
// is added whenever a call *could* reach a function, so reachability
// answers "provably never called from here" questions soundly.
//
//   - Direct calls to package-level functions and concrete methods
//     resolve through types.Info (Uses/Selections).
//   - Interface-dispatch calls fan out to every method of every named
//     type in the loaded program that implements the interface.
//   - Indirect calls through function-typed values (variables, fields,
//     parameters) fan out to every address-taken function with an
//     identical signature.
//   - Function literals are attributed to their enclosing declaration:
//     a FuncLit's body contributes edges from (and is scanned as part
//     of) the function that lexically contains it. This over-
//     approximates (a stored closure may never run) but is sound for
//     "nothing reachable allocates" proofs.

// FuncNode is one declared function or method in the loaded program.
type FuncNode struct {
	// Fn is the type-checker's object for the function.
	Fn *types.Func
	// Decl is the syntax; Body may be nil (assembly stubs).
	Decl *ast.FuncDecl
	// Pkg is the package the declaration lives in.
	Pkg *Package
	// Calls are the resolved call sites, in source order.
	Calls []CallSite
	// Anns are the //biohd: annotations on the declaration.
	Anns []Annotation
}

// Name returns the node's fully qualified name, e.g.
// "repro/internal/core.Probe" or "(*repro/internal/core.segment).probeRange".
func (n *FuncNode) Name() string { return n.Fn.FullName() }

// CallSite is one resolved call expression inside a function body.
type CallSite struct {
	// Pos locates the call.
	Pos token.Pos
	// Callees are the possible targets within the loaded program.
	// External (stdlib) callees are not represented; the walk stops at
	// the module boundary.
	Callees []*FuncNode
	// Kind records how the call resolved: "direct", "interface", or
	// "indirect".
	Kind string
}

// CallGraph is the resolved static call graph of a loaded program.
type CallGraph struct {
	nodes   map[*types.Func]*FuncNode
	callers map[*types.Func][]*FuncNode // reverse edges, deduplicated
	order   []*FuncNode                 // deterministic iteration order
}

// NewCallGraph resolves the call graph of the loaded packages.
// Packages without type information contribute no nodes (the analyzers
// that need the graph already require IsTypeOK).
func NewCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes:   map[*types.Func]*FuncNode{},
		callers: map[*types.Func][]*FuncNode{},
	}
	// Pass 1: index every declared function and collect annotations.
	for _, pkg := range pkgs {
		if !pkg.IsTypeOK() {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || obj == nil {
					continue
				}
				node := &FuncNode{Fn: obj, Decl: fd, Pkg: pkg, Anns: parseAnnotations(fd.Doc)}
				g.nodes[obj] = node
				g.order = append(g.order, node)
			}
		}
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i].Name() < g.order[j].Name() })

	// Pass 2: the indirect-call universe — address-taken functions,
	// grouped by signature identity.
	taken := g.addressTaken(pkgs)

	// Pass 3: resolve call sites.
	for _, node := range g.order {
		if node.Decl.Body == nil {
			continue
		}
		g.resolveBody(node, taken)
	}

	// Reverse edges.
	for _, node := range g.order {
		for _, cs := range node.Calls {
			for _, callee := range cs.Callees {
				g.addCaller(callee.Fn, node)
			}
		}
	}
	return g
}

func (g *CallGraph) addCaller(callee *types.Func, caller *FuncNode) {
	for _, c := range g.callers[callee] {
		if c == caller {
			return
		}
	}
	g.callers[callee] = append(g.callers[callee], caller)
}

// Nodes returns every node in deterministic (name) order.
func (g *CallGraph) Nodes() []*FuncNode { return g.order }

// Callers returns the functions with a call site that may target fn.
func (g *CallGraph) Callers(fn *types.Func) []*FuncNode { return g.callers[fn] }

// Reachable walks the graph from the given roots and returns, for every
// function reachable through non-excluded nodes, the predecessor on one
// shortest chain from a root (roots map to nil). exclude stops the walk
// at a node: the node itself is still reported reachable (its callers
// reach it) but its own edges are not followed.
func (g *CallGraph) Reachable(roots []*FuncNode, exclude func(*FuncNode) bool) map[*FuncNode]*FuncNode {
	pred := map[*FuncNode]*FuncNode{}
	queue := make([]*FuncNode, 0, len(roots))
	for _, r := range roots {
		if r == nil {
			continue
		}
		if _, seen := pred[r]; !seen {
			pred[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if exclude != nil && exclude(n) {
			continue
		}
		for _, cs := range n.Calls {
			for _, callee := range cs.Callees {
				if _, seen := pred[callee]; seen {
					continue
				}
				pred[callee] = n
				queue = append(queue, callee)
			}
		}
	}
	return pred
}

// Chain renders one root→fn call chain from a Reachable predecessor
// map, e.g. "Probe → probeInto → probeSeg". Short names keep the
// message readable; the finding position carries the file.
func Chain(pred map[*FuncNode]*FuncNode, fn *FuncNode) string {
	var names []string
	for n := fn; n != nil; n = pred[n] {
		names = append(names, n.Fn.Name())
		if pred[n] == nil {
			break
		}
	}
	// Reverse into root-first order.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	out := names[0]
	for _, s := range names[1:] {
		out += " → " + s
	}
	return out
}

// addressTaken collects every declared function referenced outside call
// position anywhere in the program — the conservative callee universe
// for indirect calls — keyed by signature identity via index into a
// parallel slice (signatures cannot be map keys).
type takenSet struct {
	sigs []*types.Signature
	fns  [][]*FuncNode
}

func (t *takenSet) add(sig *types.Signature, n *FuncNode) {
	for i, s := range t.sigs {
		if types.Identical(s, sig) {
			for _, f := range t.fns[i] {
				if f == n {
					return
				}
			}
			t.fns[i] = append(t.fns[i], n)
			return
		}
	}
	t.sigs = append(t.sigs, sig)
	t.fns = append(t.fns, []*FuncNode{n})
}

func (t *takenSet) lookup(sig *types.Signature) []*FuncNode {
	for i, s := range t.sigs {
		if types.Identical(s, stripRecv(sig)) {
			return t.fns[i]
		}
	}
	return nil
}

// stripRecv normalizes a method signature to its receiver-less form so
// method values and plain functions with the same parameter list
// compare identical.
func stripRecv(sig *types.Signature) *types.Signature {
	if sig.Recv() == nil {
		return sig
	}
	return types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
}

func (g *CallGraph) addressTaken(pkgs []*Package) *takenSet {
	taken := &takenSet{}
	for _, pkg := range pkgs {
		if !pkg.IsTypeOK() {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if ok {
					// The called expression itself is call position, but
					// its arguments may take addresses; skip just Fun.
					for _, arg := range call.Args {
						g.collectTaken(pkg, arg, taken)
					}
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						g.collectTaken(pkg, sel.X, taken)
					}
					return false
				}
				if id, ok := n.(*ast.Ident); ok {
					g.markTaken(pkg, id, taken)
				}
				return true
			})
		}
	}
	return taken
}

// collectTaken walks an expression subtree marking function references.
func (g *CallGraph) collectTaken(pkg *Package, e ast.Expr, taken *takenSet) {
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			for _, arg := range call.Args {
				g.collectTaken(pkg, arg, taken)
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				g.collectTaken(pkg, sel.X, taken)
			}
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			g.markTaken(pkg, id, taken)
		}
		return true
	})
}

func (g *CallGraph) markTaken(pkg *Package, id *ast.Ident, taken *takenSet) {
	obj, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	node := g.nodes[obj]
	if node == nil {
		return
	}
	if sig, ok := obj.Type().(*types.Signature); ok {
		taken.add(stripRecv(sig), node)
	}
}

// resolveBody resolves every call expression in node's body (function
// literals included — their calls are attributed to node).
func (g *CallGraph) resolveBody(node *FuncNode, taken *takenSet) {
	pkg := node.Pkg
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if site, ok := g.resolveCall(pkg, call, taken); ok {
			node.Calls = append(node.Calls, site)
		}
		return true
	})
}

// resolveCall classifies one call expression. Conversions, builtins and
// calls fully outside the loaded program yield no site.
func (g *CallGraph) resolveCall(pkg *Package, call *ast.CallExpr, taken *takenSet) (CallSite, bool) {
	// Conversion? T(x) has a type, not a value, in Fun position.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return CallSite{}, false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Builtin:
			return CallSite{}, false
		case *types.Func:
			if n := g.nodes[obj]; n != nil {
				return CallSite{Pos: call.Pos(), Callees: []*FuncNode{n}, Kind: "direct"}, true
			}
			return CallSite{}, false // external function
		case *types.Var:
			return g.indirectSite(call, obj.Type(), taken)
		}
		// Calling the result of a FuncLit assigned elsewhere etc.
		if t := pkg.TypeOf(fun); t != nil {
			return g.indirectSite(call, t, taken)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			fn, isFn := sel.Obj().(*types.Func)
			switch {
			case isFn && sel.Kind() == types.MethodVal:
				if recv := sel.Recv(); recv != nil {
					if iface, ok := recv.Underlying().(*types.Interface); ok {
						return g.interfaceSite(call, fun.Sel.Name, iface)
					}
				}
				if n := g.nodes[fn]; n != nil {
					return CallSite{Pos: call.Pos(), Callees: []*FuncNode{n}, Kind: "direct"}, true
				}
				return CallSite{}, false // external method
			case sel.Kind() == types.FieldVal:
				// Calling a function-typed field.
				return g.indirectSite(call, sel.Type(), taken)
			}
			return CallSite{}, false
		}
		// Qualified identifier pkg.Fn.
		if obj, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			if n := g.nodes[obj]; n != nil {
				return CallSite{Pos: call.Pos(), Callees: []*FuncNode{n}, Kind: "direct"}, true
			}
		}
	case *ast.FuncLit:
		// Immediately invoked literal: body already attributed to the
		// enclosing declaration, no edge needed.
		return CallSite{}, false
	}
	return CallSite{}, false
}

// indirectSite fans an indirect call out to every address-taken
// function with an identical signature.
func (g *CallGraph) indirectSite(call *ast.CallExpr, t types.Type, taken *takenSet) (CallSite, bool) {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return CallSite{}, false
	}
	callees := taken.lookup(stripRecv(sig))
	if len(callees) == 0 {
		return CallSite{}, false
	}
	return CallSite{Pos: call.Pos(), Callees: callees, Kind: "indirect"}, true
}

// interfaceSite fans an interface-dispatch call out to the named method
// of every loaded type implementing the interface.
func (g *CallGraph) interfaceSite(call *ast.CallExpr, method string, iface *types.Interface) (CallSite, bool) {
	var callees []*FuncNode
	for _, n := range g.order {
		recv := n.Fn.Type().(*types.Signature).Recv()
		if recv == nil || n.Fn.Name() != method {
			continue
		}
		rt := recv.Type()
		if types.Implements(rt, iface) {
			callees = append(callees, n)
			continue
		}
		// A value receiver also satisfies through the pointer type.
		if _, isPtr := rt.(*types.Pointer); !isPtr {
			if types.Implements(types.NewPointer(rt), iface) {
				callees = append(callees, n)
			}
		}
	}
	if len(callees) == 0 {
		return CallSite{}, false
	}
	return CallSite{Pos: call.Pos(), Callees: callees, Kind: "interface"}, true
}
