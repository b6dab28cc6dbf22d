//go:build deadcode

package enhancedbhpo_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadcodeAllow lists the exported identifiers under internal/ that no
// non-test code calls and that stay anyway, each with its reason: at most
// maxAllowed of them. Keys are "<import path>.<Name>" or
// "<import path>.<Type>.<Method>".
var deadcodeAllow = map[string]string{
	"enhancedbhpo/internal/serve/shipper.Shipper.Flush": "a barrier for the shipper's own tests and TestNodeOneAssemblyThreeTriggers: " +
		"ship every change so far before the node is killed or restored",
}

const maxAllowed = 6

// TestDeadExports applies one rule to every exported function, method
// and package-level variable declared under internal/: it stays only if
// non-test code of the root module or of bench/ uses it, if it is a
// method some interface may call, or if deadcodeAllow names it. Run it
// with `make deadcode`; it builds and type-checks both modules, which
// takes seconds, so it sits behind a build tag.
func TestDeadExports(t *testing.T) {
	pkgs := goList(t, ".")
	pkgs = append(pkgs, goList(t, "bench")...)

	exports := map[string]string{} // import path -> export data file
	var mine []listedPackage
	seen := map[string]bool{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Standard || p.Module == nil || seen[p.ImportPath] {
			continue
		}
		if p.Module.Path != "enhancedbhpo" && p.Module.Path != "enhancedbhpo/bench" {
			continue
		}
		seen[p.ImportPath] = true
		mine = append(mine, p)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})

	declared := map[string]token.Position{} // key -> declaration
	methods := map[string]*types.Named{}    // method key -> receiver type
	used := map[string]bool{}
	// The method sets, by name, of every interface a method may be
	// called through: the named ones of every package the modules reach,
	// the literal ones their code spells, and the ones package errors
	// asserts inside its functions.
	ifaces := [][]string{{"Error"}, {"Unwrap"}, {"Is"}, {"As"}}
	addIface := func(it *types.Interface) {
		var names []string
		for i := 0; i < it.NumMethods(); i++ {
			names = append(names, it.Method(i).Name())
		}
		if len(names) > 0 {
			ifaces = append(ifaces, names)
		}
	}
	ifaceSeen := map[*types.Package]bool{}
	var addScope func(pkg *types.Package)
	addScope = func(pkg *types.Package) {
		if ifaceSeen[pkg] {
			return
		}
		ifaceSeen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
		for _, dep := range pkg.Imports() {
			addScope(dep)
		}
	}

	for _, p := range mine {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		addScope(pkg)
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				addIface(it)
			}
		}
		for _, obj := range info.Uses {
			if k := exportKey(obj); k != "" {
				used[k] = true
			}
		}
		if !strings.HasPrefix(p.ImportPath, "enhancedbhpo/internal/") {
			continue
		}
		for id, obj := range info.Defs {
			k := exportKey(obj)
			if k == "" {
				continue
			}
			declared[k] = fset.Position(id.Pos())
			if recv := receiver(obj); recv != nil {
				methods[k] = recv
			}
		}
	}

	var dead []string
	for k, pos := range declared {
		if used[k] {
			continue
		}
		if recv, ok := methods[k]; ok && satisfiesInterface(recv, k[strings.LastIndex(k, ".")+1:], ifaces) {
			continue
		}
		if _, ok := deadcodeAllow[k]; ok {
			continue
		}
		dead = append(dead, fmt.Sprintf("%s (%s:%d)", k, relPath(pos.Filename), pos.Line))
	}
	sort.Strings(dead)
	if len(deadcodeAllow) > maxAllowed {
		t.Errorf("the allow-list holds %d entries, at most %d may stay", len(deadcodeAllow), maxAllowed)
	}
	for k := range deadcodeAllow {
		if _, ok := declared[k]; !ok || used[k] {
			t.Errorf("allow-list entry %s is not a dead export: remove it", k)
		}
	}
	if len(dead) > 0 {
		t.Errorf("%d exported identifiers under internal/ have no non-test caller; delete them, move test-only helpers into a _test.go file, or allow-list them with a reason:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
}

// goList lists every package of the module in dir and its dependencies,
// with the export data the importer reads for them.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard,Module,Error", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct {
			listedPackage
			Error *struct{ Err string }
		}
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if p.Error != nil {
			t.Fatalf("go list in %s: %s: %s", dir, p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p.listedPackage)
	}
	return pkgs
}

// exportKey names an exported function, method or package-level
// variable declared under internal/ the same way whether obj comes from
// source or from export data; "" for anything else.
func exportKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() || !strings.HasPrefix(obj.Pkg().Path(), "enhancedbhpo/internal/") {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		sig := o.Type().(*types.Signature)
		if sig.Recv() == nil {
			return o.Pkg().Path() + "." + o.Name()
		}
		recv := receiver(o)
		if recv == nil {
			return "" // an interface method
		}
		return o.Pkg().Path() + "." + recv.Obj().Name() + "." + o.Name()
	case *types.Var:
		if o.IsField() || o.Parent() != o.Pkg().Scope() {
			return ""
		}
		return o.Pkg().Path() + "." + o.Name()
	}
	return ""
}

// receiver is the named type a concrete method is declared on, or nil.
func receiver(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || types.IsInterface(named) {
		return nil
	}
	return named.Origin()
}

// satisfiesInterface reports whether some interface holds a method named
// name and recv (or a pointer to it) has every method that interface
// names. Names, not types, are compared: an interface and the type may
// come from different type-checks of one package.
func satisfiesInterface(recv *types.Named, name string, ifaces [][]string) bool {
	have := map[string]bool{}
	ms := types.NewMethodSet(types.NewPointer(recv))
	for i := 0; i < ms.Len(); i++ {
		have[ms.At(i).Obj().Name()] = true
	}
	for _, names := range ifaces {
		holds, all := false, true
		for _, m := range names {
			holds = holds || m == name
			all = all && have[m]
		}
		if holds && all {
			return true
		}
	}
	return false
}

func relPath(path string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, path); err == nil {
			return rel
		}
	}
	return path
}
