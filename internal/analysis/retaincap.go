package analysis

import (
	"go/ast"
	"go/types"
)

// RetainCap enforces the fabric's buffer-ownership contract from PR 4:
// packet slices delivered to a BatchHandler are only valid for the
// duration of the call — the fabric reuses the backing arrays afterwards.
// An implementation (or anything it calls inside the package) must
// therefore never store a delivered packet slice, or a subslice of one,
// anywhere that outlives the call: a struct field, a package-level
// variable, a channel, a spawned goroutine, or a DeliveryList.
//
// The checker runs an intra-package taint analysis. Packet parameters of
// methods named Handle/HandleBatch seed the taint; slicing and indexing
// propagate it (pkt[4:], pkts[i]); append with a byte spread
// (append(dst, pkt...)) copies bytes and clears it. A fixpoint worklist
// pushes taint through intra-package calls and tainted returns, then a
// final pass reports every escaping store. Deferred calls are exempt —
// they run before the handler returns, inside the buffer's lifetime.
var RetainCap = &Analyzer{
	Name: "retaincap",
	Doc: `check that packet handlers do not retain delivered buffers

BatchHandler implementations (and package functions reachable from
them with packet-derived arguments) must not store a delivered packet
slice or a subslice of one into a struct field, package-level variable,
channel, goroutine, or DeliveryList. The fabric owns those buffers and
reuses them after the call returns.`,
	Run: runRetainCap,
}

// rcFunc is the per-function taint summary the fixpoint converges on.
type rcFunc struct {
	decl *ast.FuncDecl
	// tainted holds every variable object (parameters seeded externally,
	// locals discovered by scanning) known to carry packet memory.
	tainted map[types.Object]bool
	// returnsTainted records that some return statement returns packet
	// memory, so call results in callers are tainted too.
	returnsTainted bool
}

func runRetainCap(pass *Pass) error {
	rc := &rcState{pass: pass, funcs: map[*types.Func]*rcFunc{}}
	var all []*rcFunc
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			rf := &rcFunc{decl: fd, tainted: map[types.Object]bool{}}
			rc.funcs[obj] = rf
			all = append(all, rf)
		}
	}

	// Seed: packet parameters of handler entry points.
	for _, rf := range all {
		if rf.decl.Recv == nil {
			continue
		}
		name := rf.decl.Name.Name
		if name != "Handle" && name != "HandleBatch" {
			continue
		}
		for _, field := range rf.decl.Type.Params.List {
			for _, pname := range field.Names {
				obj := pass.TypesInfo.Defs[pname]
				if obj != nil && isPacketSlice(obj.Type()) {
					rf.tainted[obj] = true
				}
			}
		}
	}

	// Fixpoint: rescan every function until no scan grows any taint set or
	// summary. Package call graphs here are small; the bound is a safety
	// net, not a budget.
	for i := 0; i < 32; i++ {
		rc.changed = false
		for _, rf := range all {
			if len(rf.tainted) > 0 {
				rc.scan(rf, false)
			}
		}
		if !rc.changed {
			break
		}
	}

	// Report pass, with stable taint sets.
	for _, rf := range all {
		if len(rf.tainted) > 0 {
			rc.scan(rf, true)
		}
	}
	return nil
}

type rcState struct {
	pass    *Pass
	funcs   map[*types.Func]*rcFunc
	changed bool
}

// isPacketSlice reports whether t can alias packet memory: []byte or
// [][]byte.
func isPacketSlice(t types.Type) bool {
	return t != nil && (isByteSlice(t) || isByteSliceSlice(t))
}

// scan walks one function body, propagating taint through assignments,
// range statements, and intra-package calls. With report set it also
// diagnoses escaping stores; the propagation pass stays silent so the
// fixpoint does not duplicate findings.
func (rc *rcState) scan(rf *rcFunc, report bool) {
	s := &rcScan{rc: rc, rf: rf, report: report}
	s.walk(rf.decl.Body, false)
}

type rcScan struct {
	rc     *rcState
	rf     *rcFunc
	report bool
}

func (s *rcScan) pass() *Pass { return s.rc.pass }

func (s *rcScan) taintObj(obj types.Object) {
	if obj == nil || s.rf.tainted[obj] {
		return
	}
	s.rf.tainted[obj] = true
	s.rc.changed = true
}

// tainted reports whether e may evaluate to packet memory.
func (s *rcScan) tainted(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		obj := s.pass().TypesInfo.Uses[x]
		if obj == nil {
			obj = s.pass().TypesInfo.Defs[x]
		}
		return s.rf.tainted[obj]
	case *ast.ParenExpr:
		return s.tainted(x.X)
	case *ast.SliceExpr:
		return s.tainted(x.X)
	case *ast.IndexExpr:
		// pkts[i] of a tainted [][]byte is packet memory; pkt[i] is a
		// byte, which cannot alias.
		return byteSliceValue(s.pass(), x) && s.tainted(x.X)
	case *ast.StarExpr:
		return s.tainted(x.X)
	case *ast.CallExpr:
		return s.taintedCall(x)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if s.tainted(el) {
				return true
			}
		}
		return false
	case *ast.KeyValueExpr:
		return s.tainted(x.Value)
	case *ast.UnaryExpr:
		return s.tainted(x.X)
	case *ast.FuncLit:
		return s.capturesTaint(x)
	}
	return false
}

// taintedCall decides whether a call expression returns packet memory.
func (s *rcScan) taintedCall(call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := s.pass().TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name != "append" || len(call.Args) == 0 {
				return false
			}
			// append(dst, pkt) aliases pkt in dst's backing array;
			// append(dst, pkt...) with byte elements copies the bytes out.
			if s.tainted(call.Args[0]) {
				return true
			}
			for _, a := range call.Args[1:] {
				if s.tainted(a) {
					if call.Ellipsis.IsValid() && isByteSlice(s.exprType(a)) {
						continue // byte copy, not an alias
					}
					return true
				}
			}
			return false
		}
	}
	// Type conversions ([]byte(string), mytype(x)) of tainted values:
	// []byte→[]byte-style conversions keep the backing array.
	if tv, ok := s.pass().TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return len(call.Args) == 1 && isPacketSlice(tv.Type) && s.tainted(call.Args[0])
	}
	if callee := s.calleeFunc(call); callee != nil {
		if rf, ok := s.rc.funcs[callee]; ok {
			return rf.returnsTainted
		}
	}
	return false
}

func (s *rcScan) exprType(e ast.Expr) types.Type {
	if tv, ok := s.pass().TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// calleeFunc resolves a call to the *types.Func it invokes, if static.
func (s *rcScan) calleeFunc(call *ast.CallExpr) *types.Func {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := s.pass().TypesInfo.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := s.pass().TypesInfo.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// capturesTaint reports whether a function literal's body references any
// currently tainted object.
func (s *rcScan) capturesTaint(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && s.rf.tainted[s.pass().TypesInfo.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// walk processes statements. inDefer marks statements syntactically inside
// a defer's call expression, which runs within the buffer's lifetime.
func (s *rcScan) walk(n ast.Node, inDefer bool) {
	if n == nil {
		return
	}
	switch x := n.(type) {
	case *ast.AssignStmt:
		s.assign(x)
		return
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) && s.tainted(vs.Values[i]) {
						s.taintObj(s.pass().TypesInfo.Defs[name])
					}
				}
				for _, v := range vs.Values {
					s.walkExpr(v, inDefer)
				}
			}
		}
		return
	case *ast.RangeStmt:
		if s.tainted(x.X) {
			if id, ok := x.Value.(*ast.Ident); ok {
				if obj := s.pass().TypesInfo.Defs[id]; obj != nil && isPacketSlice(obj.Type()) {
					s.taintObj(obj)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			if s.tainted(r) && !s.rf.returnsTainted {
				s.rf.returnsTainted = true
				s.rc.changed = true
			}
		}
	case *ast.SendStmt:
		if s.report && s.tainted(x.Value) {
			s.pass().Reportf(x.Pos(),
				"sends packet-derived slice on a channel; the fabric reuses the buffer after the handler returns — copy it first")
		}
	case *ast.GoStmt:
		if s.report {
			for _, a := range x.Call.Args {
				if s.tainted(a) {
					s.pass().Reportf(x.Pos(),
						"passes packet-derived slice to a goroutine that outlives the handler call — copy it first")
					break
				}
			}
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok && s.capturesTaint(lit) {
				s.pass().Reportf(x.Pos(),
					"goroutine closure captures a packet-derived slice and outlives the handler call — copy it first")
			}
		}
		s.propagateCall(x.Call)
		for _, a := range x.Call.Args {
			s.walkExpr(a, inDefer)
		}
		// Still walk the goroutine body: stores inside it escape too.
		if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
			s.walk(lit.Body, inDefer)
		}
		return
	case *ast.DeferStmt:
		// A deferred call runs before the handler returns, inside the
		// buffer's lifetime: passing packet memory to it is fine, but
		// stores *inside* a deferred closure still escape, so walk the
		// body with the exemption only on the call itself.
		s.propagateCall(x.Call)
		for _, a := range x.Call.Args {
			s.walkExpr(a, true)
		}
		if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
			s.walk(lit.Body, true)
		}
		return
	case *ast.ExprStmt:
		s.walkExpr(x.X, inDefer)
		return
	}

	// Generic recursion over child statements and expressions.
	ast.Inspect(n, func(child ast.Node) bool {
		if child == n {
			return true
		}
		switch child.(type) {
		case ast.Stmt:
			s.walk(child, inDefer)
			return false
		case ast.Expr:
			s.walkExpr(child.(ast.Expr), inDefer)
			return false
		}
		return true
	})
}

// walkExpr handles calls (propagation + DeliveryList sink) and nested
// function literals inside an expression.
func (s *rcScan) walkExpr(e ast.Expr, inDefer bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			s.propagateCall(x)
			if s.report && !inDefer {
				s.checkDeliverySink(x)
			}
		case *ast.FuncLit:
			s.walk(x.Body, inDefer)
			return false
		}
		return true
	})
}

// assign propagates taint into local targets and reports escaping stores.
func (s *rcScan) assign(a *ast.AssignStmt) {
	for _, r := range a.Rhs {
		s.walkExpr(r, false)
	}
	rhs := func(i int) ast.Expr {
		if len(a.Rhs) == len(a.Lhs) {
			return a.Rhs[i]
		}
		return a.Rhs[0] // x, y := call() — conservatively shared
	}
	for i, l := range a.Lhs {
		r := rhs(i)
		if !s.tainted(r) {
			continue
		}
		// Multi-value call: only byte-slice-shaped targets can alias.
		if len(a.Rhs) != len(a.Lhs) && !isPacketSlice(s.exprType(l)) {
			continue
		}
		switch lt := l.(type) {
		case *ast.Ident:
			obj := s.pass().TypesInfo.Defs[lt]
			if obj == nil {
				obj = s.pass().TypesInfo.Uses[lt]
			}
			if obj == nil || lt.Name == "_" {
				continue
			}
			if obj.Parent() == s.pass().Pkg.Scope() {
				if s.report {
					s.pass().Reportf(a.Pos(),
						"stores packet-derived slice in package-level variable %s, outliving the handler call — copy it first", lt.Name)
				}
				continue
			}
			s.taintObj(obj)
		case *ast.SelectorExpr:
			if s.report {
				s.pass().Reportf(a.Pos(),
					"stores packet-derived slice into field %s, outliving the handler call — copy it first", lt.Sel.Name)
			}
		case *ast.IndexExpr:
			// dst[i] = pkt: if dst is a local slice it becomes tainted;
			// if dst is a field or global the store escapes.
			switch base := lt.X.(type) {
			case *ast.Ident:
				obj := s.pass().TypesInfo.Uses[base]
				if obj != nil && obj.Parent() == s.pass().Pkg.Scope() {
					if s.report {
						s.pass().Reportf(a.Pos(),
							"stores packet-derived slice into package-level container %s — copy it first", base.Name)
					}
					continue
				}
				s.taintObj(obj)
			case *ast.SelectorExpr:
				if s.report {
					s.pass().Reportf(a.Pos(),
						"stores packet-derived slice into container field %s — copy it first", base.Sel.Name)
				}
			}
		case *ast.StarExpr:
			if s.report {
				s.pass().Reportf(a.Pos(),
					"stores packet-derived slice through a pointer that may outlive the handler call — copy it first")
			}
		}
	}
}

// propagateCall pushes taint from arguments into intra-package callees'
// parameter sets, feeding the fixpoint.
func (s *rcScan) propagateCall(call *ast.CallExpr) {
	callee := s.calleeFunc(call)
	if callee == nil {
		return
	}
	rf, ok := s.rc.funcs[callee]
	if !ok {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if !s.tainted(arg) {
			continue
		}
		idx := i
		if idx >= params.Len() {
			idx = params.Len() - 1 // variadic tail
		}
		if idx < 0 {
			continue
		}
		// Match the caller-side *types.Var to the callee-side declared
		// parameter object through the FuncDecl's parameter names.
		if obj := declaredParam(s.pass(), rf.decl, idx); obj != nil {
			if !rf.tainted[obj] {
				rf.tainted[obj] = true
				s.rc.changed = true
			}
		}
	}
}

// declaredParam returns the types.Object for the idx-th declared parameter
// of fn (flattening grouped parameters like `a, b []byte`).
func declaredParam(pass *Pass, fn *ast.FuncDecl, idx int) types.Object {
	n := 0
	for _, field := range fn.Type.Params.List {
		names := field.Names
		if len(names) == 0 {
			n++ // unnamed parameter cannot be referenced, nothing to taint
			continue
		}
		for _, name := range names {
			if n == idx {
				return pass.TypesInfo.Defs[name]
			}
			n++
		}
	}
	return nil
}

// checkDeliverySink flags tainted arguments handed to DeliveryList
// methods: a DeliveryList batches packets for a later delivery, which by
// definition outlives the current handler call.
func (s *rcScan) checkDeliverySink(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := s.pass().TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Name() != "DeliveryList" {
		return
	}
	for _, a := range call.Args {
		if s.tainted(a) {
			s.pass().Reportf(call.Pos(),
				"hands packet-derived slice to DeliveryList.%s; the list outlives the handler call — copy it first", sel.Sel.Name)
			return
		}
	}
}
