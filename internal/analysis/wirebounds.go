package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WireBounds enforces the PR 3 codec hardening on every wire decoder: a
// Decode* or decode* function taking []byte input — the exported client-side
// codecs and the unexported ones the switch's ingress parses through alike —
// arrives straight off the network, so it must check len(...) before its
// first index/slice of that input, and its short-input path must return an
// error wrapping the package's ErrTruncated sentinel so callers can
// distinguish truncation from corruption. A decoder may delegate both duties
// by first handing its input to another decoder, which is held to the same
// rule.
var WireBounds = &Analyzer{
	Name: "wirebounds",
	Doc: `check that Decode*/decode* functions bounds-check and wrap ErrTruncated

Every function named Decode* or decode* with a []byte parameter must call len(...) on
byte-slice input before its first index or slice expression over one, and
must reference ErrTruncated (the truncation sentinel) so short inputs fail
with a wrapped, matchable error instead of a panic or an anonymous one —
or pass the input to another such decoder first.`,
	Run: runWireBounds,
}

func runWireBounds(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isDecoderName(fn.Name.Name) {
				continue
			}
			if !hasByteSliceParam(pass, fn) {
				continue
			}
			checkWireBounds(pass, fn)
		}
	}
	return nil
}

func isDecoderName(name string) bool {
	return strings.HasPrefix(name, "Decode") || strings.HasPrefix(name, "decode")
}

func hasByteSliceParam(pass *Pass, fn *ast.FuncDecl) bool {
	for _, field := range fn.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if ok && (isByteSlice(tv.Type) || isByteSliceSlice(tv.Type)) {
			return true
		}
	}
	return false
}

func checkWireBounds(pass *Pass, fn *ast.FuncDecl) {
	firstIndex := token.NoPos
	firstGuard := token.NoPos
	usesErrTruncated := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IndexExpr:
			if byteSliceValue(pass, x.X) && !firstIndex.IsValid() {
				firstIndex = x.Pos()
			}
		case *ast.SliceExpr:
			if byteSliceValue(pass, x.X) && !firstIndex.IsValid() {
				firstIndex = x.Pos()
			}
		case *ast.CallExpr:
			id, ok := x.Fun.(*ast.Ident)
			if !ok {
				break
			}
			// len(input) guards; so does handing the input to another
			// decoder, which also takes over the truncation path.
			_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
			guards := isBuiltin && id.Name == "len" && len(x.Args) == 1
			delegates := isDecoderName(id.Name)
			for _, arg := range x.Args {
				if (guards || delegates) && byteSliceValue(pass, arg) {
					usesErrTruncated = usesErrTruncated || delegates
					if !firstGuard.IsValid() {
						firstGuard = x.Pos()
					}
				}
			}
		case *ast.Ident:
			if x.Name == "ErrTruncated" {
				usesErrTruncated = true
			}
		}
		return true
	})
	if !firstIndex.IsValid() {
		return // never indexes byte-slice input: delegating wrapper, nothing to guard
	}
	if !firstGuard.IsValid() || firstGuard > firstIndex {
		pass.Reportf(firstIndex,
			"%s indexes its []byte input before any len() guard", fn.Name.Name)
	}
	if !usesErrTruncated {
		pass.Reportf(fn.Name.Pos(),
			"%s indexes its []byte input but never returns an error wrapping ErrTruncated on the short-input path",
			fn.Name.Name)
	}
}

// byteSliceValue reports whether e is a value of type []byte or [][]byte.
func byteSliceValue(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsValue() && (isByteSlice(tv.Type) || isByteSliceSlice(tv.Type))
}
