package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module under analysis.
// Only non-test files are loaded: the hygiene invariants target shipping
// code, and test packages may deliberately violate them (fixtures, fault
// injection). Files excluded from the host build by //go:build lines or
// _GOOS/_GOARCH filename suffixes are skipped the same way `go build`
// skips them.
type Package struct {
	Module string
	Path   string
	Dir    string
	// Root is the module root directory, for rendering module-relative
	// finding paths.
	Root  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Load parses and type-checks the module rooted at dir (the directory
// holding go.mod, or any directory below it) for the given package
// patterns. Patterns follow the go tool's shape: "./..." for the whole
// module, "./internal/pas/..." for a subtree, "./internal/pas" for one
// package.
func Load(dir string, patterns []string) ([]*Package, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:    token.NewFileSet(),
		module:  modPath,
		root:    root,
		dirs:    map[string]string{},
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if err := l.discover(); err != nil {
		return nil, err
	}
	want, err := l.selectPaths(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, path := range want {
		pkg, err := l.load(path)
		if errors.Is(err, errNoHostFiles) {
			// Every file is build-constrained off this platform; the go
			// tool would not build it here either.
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// errNoHostFiles marks a package whose files are all excluded by build
// constraints on the host platform.
var errNoHostFiles = errors.New("lint: no source files for this platform")

// findModule walks upward from dir to the directory containing go.mod and
// extracts the module path.
func findModule(dir string) (root, module string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for cur := abs; ; cur = filepath.Dir(cur) {
		data, err := os.ReadFile(filepath.Join(cur, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return cur, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", cur)
		}
		if filepath.Dir(cur) == cur {
			return "", "", fmt.Errorf("lint: no go.mod above %s", abs)
		}
	}
}

type loader struct {
	fset    *token.FileSet
	module  string
	root    string
	dirs    map[string]string // import path -> directory
	pkgs    map[string]*Package
	loading map[string]bool // cycle guard
	std     types.Importer
}

// discover indexes every package directory of the module.
func (l *loader) discover() error {
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if len(l.sourceFiles(path)) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		imp := l.module
		if rel != "." {
			imp = l.module + "/" + filepath.ToSlash(rel)
		}
		l.dirs[imp] = path
		return nil
	})
}

// sourceFiles lists the non-test .go files of a directory that build on
// the host platform.
func (l *loader) sourceFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if !fileSuffixOK(name) {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out
}

// knownOS / knownArch are the GOOS/GOARCH values recognized in filename
// suffixes (name_GOOS.go, name_GOARCH.go, name_GOOS_GOARCH.go).
var knownOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "js": true,
	"linux": true, "netbsd": true, "openbsd": true, "plan9": true,
	"solaris": true, "wasip1": true, "windows": true,
}

var knownArch = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true,
	"loong64": true, "mips": true, "mipsle": true, "mips64": true,
	"mips64le": true, "ppc64": true, "ppc64le": true, "riscv64": true,
	"s390x": true, "wasm": true,
}

// unixOS is the set of GOOS values satisfying the "unix" build tag.
var unixOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "linux": true,
	"netbsd": true, "openbsd": true, "solaris": true,
}

// fileSuffixOK applies go's implicit filename build constraints for the
// host platform.
func fileSuffixOK(name string) bool {
	base := strings.TrimSuffix(name, ".go")
	parts := strings.Split(base, "_")
	if len(parts) < 2 {
		return true
	}
	last := parts[len(parts)-1]
	if knownArch[last] {
		if last != runtime.GOARCH {
			return false
		}
		if len(parts) >= 3 && knownOS[parts[len(parts)-2]] {
			return parts[len(parts)-2] == runtime.GOOS
		}
		return true
	}
	if knownOS[last] {
		return last == runtime.GOOS
	}
	return true
}

// buildTagSatisfied evaluates one build-constraint tag for the host.
func buildTagSatisfied(tag string) bool {
	switch {
	case tag == runtime.GOOS, tag == runtime.GOARCH, tag == "gc":
		return true
	case tag == "unix":
		return unixOS[runtime.GOOS]
	case strings.HasPrefix(tag, "go1."):
		// The toolchain running this loader satisfies every released
		// go1.x constraint this module is allowed to state (go.mod pins
		// the floor); accepting them all avoids parsing runtime.Version.
		return true
	}
	return false
}

// buildConstraintOK reports whether the //go:build line of a file (if any)
// is satisfied on the host platform. Only the header — lines before the
// package clause — is scanned, matching go/build.
func buildConstraintOK(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if constraint.IsGoBuild(line) {
			expr, err := constraint.Parse(line)
			if err != nil {
				return true // malformed: let the type-checker surface it
			}
			return expr.Eval(buildTagSatisfied)
		}
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		break // package clause or code: past the header
	}
	return true
}

// selectPaths expands patterns against the discovered package index.
func (l *loader) selectPaths(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var out []string
	for _, pat := range patterns {
		matched := false
		for _, imp := range slices.Sorted(maps.Keys(l.dirs)) {
			if !matchPattern(l.module, pat, imp) {
				continue
			}
			matched = true
			if !seen[imp] {
				seen[imp] = true
				out = append(out, imp)
			}
		}
		if !matched {
			return nil, fmt.Errorf("lint: pattern %q matched no packages", pat)
		}
	}
	return out, nil
}

// matchPattern reports whether the import path matches one go-style
// pattern, resolved relative to the module root.
func matchPattern(module, pat, imp string) bool {
	pat = strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/")
	if pat == "" || pat == "." {
		pat = module
	} else if !strings.HasPrefix(pat, module) {
		pat = module + "/" + pat
	}
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		return imp == rest || strings.HasPrefix(imp, rest+"/")
	}
	if pat == module+"/..." { // "..." alone
		return true
	}
	return imp == pat
}

// load parses and type-checks one module package (memoized).
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, ok := l.dirs[path]
	if !ok {
		return nil, fmt.Errorf("lint: no package %s in module %s", path, l.module)
	}
	var files []*ast.File
	for _, name := range l.sourceFiles(dir) {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !buildConstraintOK(src) {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%w: %s", errNoHostFiles, path)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(l.importPath),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		err = typeErrs[0] // the collector saw every error; the first is the root cause
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Module: l.module,
		Path:   path,
		Dir:    dir,
		Root:   l.root,
		Fset:   l.fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// importPath resolves an import: module-internal packages recurse through
// the loader; everything else must be stdlib and goes through the source
// importer (this module is dependency-free by policy).
func (l *loader) importPath(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
