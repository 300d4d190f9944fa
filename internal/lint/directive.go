package lint

// Directives are the annotation half of the whole-program rules: short
// machine-readable markers in doc comments that declare the contracts
// the analyzer then enforces globally. Unlike //smartlint:allow — which
// weakens a rule at one site — a directive widens the checked surface:
// marking a function //smartlint:hotpath opts it into the
// zero-heap-allocation check, marking a type //smartlint:shardowned
// feeds the ownership model of the shardsafe rule.
//
//	//smartlint:shardentry    func: root of a per-shard pool phase's
//	                          call graph (shardsafe rule)
//	//smartlint:shardsink     func: trusted cross-shard boundary (the
//	                          mailbox API); shardsafe does not descend
//	//smartlint:shardowned    type: instances are owned by one shard;
//	                          writes through them are shard-local
//	//smartlint:shardindexed  field: a per-router/port/lane/node array
//	                          whose elements each belong to exactly one
//	                          shard; element writes are shard-local,
//	                          whole-field writes are not
//	//smartlint:hotpath       func: must not heap-allocate; checked
//	                          against the compiler's escape analysis
//	//smartlint:taint         func or field: the value depends on the
//	                          execution environment (wall clock, shard
//	                          count, GOMAXPROCS) — a digestpure source
//	//smartlint:digested      type: its fields feed content digests
//	//smartlint:undigested    field of a digested type that the digest
//	                          canonicalization zeroes; tainted writes ok
//	//smartlint:digestsink    func: arguments must be digest-pure
//
// A directive may carry a trailing "— <reason>" like allow comments;
// the reason is optional for directives (the contract is the reason).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const directivePrefix = "//smartlint:"

// Directive kinds, by the declaration they attach to.
var funcDirectives = map[string]bool{
	"shardentry": true, "shardsink": true, "hotpath": true,
	"taint": true, "digestsink": true,
}

var typeDirectives = map[string]bool{
	"shardowned": true, "digested": true,
}

var fieldDirectives = map[string]bool{
	"shardindexed": true, "undigested": true, "taint": true,
}

// annotations indexes the directives of a loaded program. Functions and
// types are keyed by stable string IDs (package path + name), so a
// wormhole method annotated in its own package resolves identically
// when routing's type universe sees it through export data. Fields are
// keyed by their *types.Var object: field directives are only consulted
// from the declaring package's own universe (write sites elsewhere fall
// back to the type-level ownership rules).
type annotations struct {
	funcs  map[string]map[string]bool
	types  map[string]map[string]bool
	fields map[*types.Var]map[string]bool
}

func newAnnotations() *annotations {
	return &annotations{
		funcs:  map[string]map[string]bool{},
		types:  map[string]map[string]bool{},
		fields: map[*types.Var]map[string]bool{},
	}
}

func (a *annotations) fn(id, directive string) bool  { return a.funcs[id][directive] }
func (a *annotations) typ(id, directive string) bool { return a.types[id][directive] }
func (a *annotations) field(v *types.Var, d string) bool {
	if v == nil {
		return false
	}
	return a.fields[v][d]
}

// directivesOf extracts the smartlint directive names from a comment
// group, ignoring allow comments (parseAllows owns those).
func directivesOf(groups ...*ast.CommentGroup) []string {
	var out []string
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			name, ok := directiveName(c.Text)
			if ok && name != "allow" {
				out = append(out, name)
			}
		}
	}
	return out
}

// directiveName splits "//smartlint:<name> [— reason]" and returns the
// name. ok is false for comments that are not smartlint directives.
func directiveName(text string) (string, bool) {
	rest, ok := strings.CutPrefix(text, directivePrefix)
	if !ok {
		return "", false
	}
	name, _, _ := strings.Cut(rest, " ")
	return strings.TrimSpace(name), true
}

// pkgPathOf returns the import path of the package declaring obj, ""
// for builtins.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// funcID returns the stable cross-universe identity of a function or
// method: "path.Name" for package functions, "(path.Recv).Name" for
// methods (pointer and value receivers collapse to one ID).
func funcID(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkgPathOf(fn) + "." + fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return "(" + pkgPathOf(n.Obj()) + "." + n.Obj().Name() + ")." + fn.Name()
	}
	return "(" + t.String() + ")." + fn.Name()
}

// typeID returns the stable identity of a named type.
func typeID(tn *types.TypeName) string {
	return pkgPathOf(tn) + "." + tn.Name()
}

// namedOf unwraps pointers and aliases down to the named type of t, nil
// when t has no name (unnamed structs, basics, slices...).
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return nil
		}
	}
}

// collect scans one package's declarations and merges their directives
// into a. It returns diagnostics for unknown or misplaced directives —
// a typo like //smartlint:hotpth must fail the build, not silently
// leave a function unchecked.
func (a *annotations) collect(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	bad := func(pos ast.Node, format string, args ...any) {
		p := pkg.Fset.Position(pos.Pos())
		diags = append(diags, Diagnostic{Path: p.Filename, Line: p.Line, Rule: ruleAllow, Message: fmt.Sprintf(format, args...)})
	}
	for _, file := range pkg.Files {
		attached := map[*ast.Comment]bool{}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				markAttached(attached, d.Doc)
				obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
				for _, name := range directivesOf(d.Doc) {
					if !funcDirectives[name] {
						bad(d, "directive //smartlint:%s does not apply to a function declaration", name)
						continue
					}
					if obj != nil {
						a.add(a.funcs, funcID(obj), name)
					}
				}
			case *ast.GenDecl:
				// Only type declarations consume doc directives; a
				// directive on a var/const declaration attaches to
				// nothing and falls through to the floating check.
				if d.Tok == token.TYPE {
					markAttached(attached, d.Doc)
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					markAttached(attached, ts.Doc, ts.Comment)
					tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
					for _, name := range directivesOf(d.Doc, ts.Doc, ts.Comment) {
						if !typeDirectives[name] {
							bad(ts, "directive //smartlint:%s does not apply to a type declaration", name)
							continue
						}
						if tn != nil {
							a.add(a.types, typeID(tn), name)
						}
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, f := range st.Fields.List {
						markAttached(attached, f.Doc, f.Comment)
						for _, name := range directivesOf(f.Doc, f.Comment) {
							if !fieldDirectives[name] {
								bad(f, "directive //smartlint:%s does not apply to a struct field", name)
								continue
							}
							for _, ident := range f.Names {
								if v, ok := pkg.Info.Defs[ident].(*types.Var); ok {
									a.addField(v, name)
								}
							}
						}
					}
				}
			}
		}
		// Directives anywhere else in the file (inside bodies, floating
		// between declarations) attach to nothing and silently check
		// nothing: report them.
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				name, ok := directiveName(c.Text)
				if !ok || name == "allow" || attached[c] {
					continue
				}
				if !funcDirectives[name] && !typeDirectives[name] && !fieldDirectives[name] {
					bad(c, "unknown directive //smartlint:%s", name)
				} else {
					bad(c, "directive //smartlint:%s is not attached to a declaration it applies to", name)
				}
			}
		}
	}
	return diags
}

func (a *annotations) add(m map[string]map[string]bool, id, directive string) {
	if m[id] == nil {
		m[id] = map[string]bool{}
	}
	m[id][directive] = true
}

func (a *annotations) addField(v *types.Var, directive string) {
	if a.fields[v] == nil {
		a.fields[v] = map[string]bool{}
	}
	a.fields[v][directive] = true
}

func markAttached(set map[*ast.Comment]bool, groups ...*ast.CommentGroup) {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			set[c] = true
		}
	}
}
