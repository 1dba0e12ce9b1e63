package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("scotty/internal/core").
	Path string
	// Fset holds positions for every file in the load.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info records types, definitions, uses, and selections.
	Info *types.Info
}

// Loader loads and type-checks packages of a single module from source,
// resolving standard-library imports through go/importer's source importer.
// It deliberately skips _test.go files: the contracts it audits live in
// production code, and external test packages would need a second
// type-checking universe.
type Loader struct {
	// ModulePath is the module's import-path prefix ("scotty").
	ModulePath string
	// Dir is the module root on disk. May be empty when every package is
	// served from Overlay (the unit-test configuration).
	Dir string
	// Overlay maps import path -> file name -> source text. Overlay
	// packages shadow the disk.
	Overlay map[string]map[string]string

	fset   *token.FileSet
	loaded map[string]*Package
	errs   map[string]error
	stdlib types.Importer
}

func (l *Loader) init() {
	if l.fset != nil {
		return
	}
	l.fset = token.NewFileSet()
	l.loaded = map[string]*Package{}
	l.errs = map[string]error{}
	l.stdlib = importer.ForCompiler(l.fset, "source", nil)
}

// Load resolves patterns to packages and type-checks them (plus their
// module-local dependencies). Supported patterns: "./..." for every package
// in the module, an import path ("scotty/internal/core"), or a relative
// directory ("./internal/core").
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	l.init()
	paths, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			all, err := l.allPackages()
			if err != nil {
				return nil, err
			}
			for _, p := range all {
				add(p)
			}
		case strings.HasPrefix(pat, "./"):
			rel := filepath.ToSlash(strings.TrimPrefix(pat, "./"))
			if rel == "" || rel == "." {
				add(l.ModulePath)
			} else {
				add(l.ModulePath + "/" + rel)
			}
		default:
			add(pat)
		}
	}
	sort.Strings(out)
	return out, nil
}

// allPackages walks the module directory (and the overlay) for every
// directory containing non-test .go files.
func (l *Loader) allPackages() ([]string, error) {
	seen := map[string]bool{}
	for path := range l.Overlay {
		seen[path] = true
	}
	if l.Dir != "" {
		err := filepath.WalkDir(l.Dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != l.Dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(l.Dir, filepath.Dir(path))
			if err != nil {
				return err
			}
			ip := l.ModulePath
			if rel != "." {
				ip = l.ModulePath + "/" + filepath.ToSlash(rel)
			}
			seen[ip] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// Import implements types.Importer: module-local paths load recursively,
// everything else is delegated to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.local(path) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.stdlib.Import(path)
}

func (l *Loader) local(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// load parses and type-checks one module-local package (memoized).
func (l *Loader) load(path string) (*Package, error) {
	l.init()
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	if err, ok := l.errs[path]; ok {
		return nil, err
	}
	pkg, err := l.loadUncached(path)
	if err != nil {
		l.errs[path] = err
		return nil, err
	}
	l.loaded[path] = pkg
	return pkg, nil
}

func (l *Loader) loadUncached(path string) (*Package, error) {
	sources, err := l.sources(path)
	if err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("no Go source files in %s", path)
	}
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)

	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, sources[name], parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil && tpkg == nil {
		return nil, err
	}
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type errors: %w", typeErrs[0])
	}
	return &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// sources returns file name -> content for the package, preferring the
// overlay. Disk contents are keyed by absolute path so findings print real
// locations; overlay contents are keyed "importpath/filename".
func (l *Loader) sources(path string) (map[string]string, error) {
	if ov, ok := l.Overlay[path]; ok {
		out := map[string]string{}
		for name, src := range ov {
			if buildIgnored(src) {
				continue
			}
			out[path+"/"+name] = src
		}
		return out, nil
	}
	if l.Dir == "" {
		return nil, fmt.Errorf("package %s: not in overlay and loader has no module directory", path)
	}
	if !l.local(path) {
		return nil, fmt.Errorf("package %s: outside module %s", path, l.ModulePath)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := l.Dir
	if rel != "" {
		dir = filepath.Join(l.Dir, filepath.FromSlash(rel))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if buildIgnored(string(data)) {
			continue
		}
		out[filepath.Join(dir, name)] = string(data)
	}
	return out, nil
}

// buildIgnored reports whether the source file excludes itself from the
// package with a `//go:build ignore` constraint — the convention for
// go-run-only tool files (`go run file.go` scripts), which the go toolchain
// never compiles into the surrounding package. Only the bare `ignore` tag is
// recognized; the loader does not evaluate general build expressions.
func buildIgnored(src string) bool {
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "package ") {
			return false
		}
		if line == "//go:build ignore" || line == "// +build ignore" {
			return true
		}
	}
	return false
}

// ModulePathFromGoMod reads the module path declared in dir/go.mod.
func ModulePathFromGoMod(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s/go.mod", dir)
}
