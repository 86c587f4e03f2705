package lint

import (
	"go/types"
	"slices"
	"strings"
	"testing"
)

// Reasons an export with no non-test caller may stay.
const (
	oracle     = "test oracle: the reference other code is checked against"
	testHelper = "helper that other packages' tests import (a _test.go file cannot export across packages)"
	dispatched = "errors.Is and errors.As call it through an anonymous interface"
)

// unusedAllowed lists the exported functions and methods in internal/ that
// no non-test code calls but that stay, each with the reason it stays. Keys
// are "pkg.Func" or "pkg.Type.Method" with pkg the last import path element.
var unusedAllowed = map[string]string{
	"data.Blobs":                  testHelper,
	"data.SaveExamples":           testHelper,
	"delta.Delta.Apply":           oracle,
	"dlv.Repo.GetObject":          testHelper,
	"dnn.Network.Clone":           testHelper,
	"dnn.Network.Logits":          testHelper,
	"dnn.Network.LossAndBackward": oracle,
	"hub.transientError.Unwrap":   dispatched,
	"obs.DisableTracing":          testHelper,
	"pas.ManifestJSON":            testHelper,
	"tensor.Matrix.ApproxEqual":   testHelper,
	"tensor.Matrix.MatMulRef":     oracle,
	"tensor.Matrix.MeanAbsDiff":   testHelper,
	"tensor.Matrix.Scale":         testHelper,
	"tensor.MustFromSlice":        testHelper,
	"zoo.MLP":                     testHelper,
}

// TestNoUnusedInternalAPI keeps the product API free of exports that only
// tests reach. It type-checks every non-test file of the module and fails,
// naming the function, when an exported function or method in internal/
// (outside this package) is referenced by no non-test file, unless an
// interface dispatches to it or unusedAllowed gives the reason it stays. The
// module's programs (cmd/, bench/, examples/) count as callers; tests do
// not, so a helper only tests use belongs in a _test.go file.
func TestNoUnusedInternalAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	used := map[*types.Func]bool{}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	markDispatched(pkgs, used)
	stale := map[string]bool{}
	for k := range unusedAllowed {
		stale[k] = true
	}
	var unused []string
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.Path, p.Module+"/")
		if !strings.HasPrefix(rel, "internal/") || rel == "internal/lint" {
			continue
		}
		for _, fn := range exportedFuncs(p.Types) {
			key := surfaceKey(fn)
			delete(stale, key)
			reason, allowed := unusedAllowed[key]
			switch {
			case used[fn] && allowed:
				t.Errorf("allowlist entry %s (%s) now has a non-test caller: drop the entry", key, reason)
			case !used[fn] && !allowed:
				unused = append(unused, key)
			}
		}
	}
	slices.Sort(unused)
	for _, k := range unused {
		t.Errorf("%s is exported but only tests reference it: delete it, move it into a _test.go file, or allowlist it with a reason", k)
	}
	for k := range stale {
		t.Errorf("allowlist entry %s names no exported function in internal/", k)
	}
}

// exportedFuncs returns the package's exported functions and the exported
// methods of its named types.
func exportedFuncs(pkg *types.Package) []*types.Func {
	var out []*types.Func
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				out = append(out, obj)
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			for i := range named.NumMethods() {
				if m := named.Method(i); m.Exported() {
					out = append(out, m)
				}
			}
		}
	}
	return out
}

// surfaceKey names a function as the allowlist does: pkg.Func or
// pkg.Type.Method.
func surfaceKey(fn *types.Func) string {
	key := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// interfacesIn collects every named interface type declared in the loaded
// packages and in the packages they import, transitively (the standard
// library's error, fmt.Stringer, io.Writer, heap.Interface, slog.Handler,
// ...).
func interfacesIn(pkgs []*Package) []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	out = append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return out
}

// markDispatched marks as used every method through which a module type
// satisfies an interface: dynamic dispatch reaches it, and no Uses entry
// names it. A method promoted from an embedded type counts for that type.
func markDispatched(pkgs []*Package, used map[*types.Func]bool) {
	ifaces := interfacesIn(pkgs)
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := range it.NumMethods() {
					m := it.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					if fn, ok := obj.(*types.Func); ok {
						used[fn.Origin()] = true
					}
				}
			}
		}
	}
}
