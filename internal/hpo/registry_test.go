package hpo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// entryPointMethod maps exported optimizer entry points whose lowercased
// name is not already the canonical registry name.
var entryPointMethod = map[string]string{
	"successivehalving": "sha",
	"randomsearch":      "random",
	"gridsearch":        "grid",
}

// TestRegistryCoversEveryEntryPoint parses the package source and fails
// when an exported optimizer entry point — any exported top-level function
// returning (*Result, error) — lacks a registry entry, or a registered
// method lacks an entry point. Adding an eleventh optimizer without
// registering it breaks this test, not the job service at runtime.
func TestRegistryCoversEveryEntryPoint(t *testing.T) {
	fset := token.NewFileSet()
	noTests := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, ".", noTests, 0)
	if err != nil {
		t.Fatal(err)
	}
	// entryPoints: canonical method name -> exported functions implementing it.
	entryPoints := map[string][]string{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !fn.Name.IsExported() || !returnsResultErr(fn) {
					continue
				}
				name := strings.ToLower(fn.Name.Name)
				if canonical, ok := entryPointMethod[name]; ok {
					name = canonical
				}
				entryPoints[name] = append(entryPoints[name], fn.Name.Name)
			}
		}
	}
	if len(entryPoints) == 0 {
		t.Fatal("found no optimizer entry points; the scanner is broken")
	}
	for name, fns := range entryPoints {
		if _, ok := LookupMethod(name); !ok {
			t.Errorf("exported optimizer entry point(s) %v have no registry entry %q", fns, name)
		}
	}
	for _, name := range MethodNames() {
		if _, ok := entryPoints[name]; !ok {
			t.Errorf("registered method %q has no exported entry point", name)
		}
	}
}

// returnsResultErr matches the optimizer entry-point signature suffix
// (*Result, error).
func returnsResultErr(fn *ast.FuncDecl) bool {
	res := fn.Type.Results
	if res == nil || len(res.List) != 2 {
		return false
	}
	star, ok := res.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	ident, ok := star.X.(*ast.Ident)
	if !ok || ident.Name != "Result" {
		return false
	}
	errIdent, ok := res.List[1].Type.(*ast.Ident)
	return ok && errIdent.Name == "error"
}

// TestRegistryNamesAndAliases pins the served name/alias surface: exactly
// the ten methods, with the CLI's historical aliases resolving to their
// canonical methods.
func TestRegistryNamesAndAliases(t *testing.T) {
	want := []string{"asha", "bohb", "dehb", "grid", "hyperband", "pasha", "random", "sha", "smac", "tpe"}
	got := MethodNames()
	if !equalStrings(got, want) {
		t.Fatalf("MethodNames() = %v, want %v", got, want)
	}
	for alias, canonical := range map[string]string{
		"hb":     "hyperband",
		"optuna": "tpe",
	} {
		resolved, ok := CanonicalName(alias)
		if !ok || resolved != canonical {
			t.Errorf("CanonicalName(%q) = %q, %t; want %q", alias, resolved, ok, canonical)
		}
		m, ok := LookupMethod(alias)
		if !ok || m.Info().Name != canonical {
			t.Errorf("LookupMethod(%q) resolved to %v, want method %q", alias, m, canonical)
		}
	}
	if _, ok := LookupMethod("nope"); ok {
		t.Error("LookupMethod accepted an unknown name")
	}
	if _, ok := CanonicalName(""); ok {
		t.Error("CanonicalName accepted the empty name")
	}
}

// TestRegistryCapabilities pins the capability flags the job service
// validates submissions against.
func TestRegistryCapabilities(t *testing.T) {
	type caps struct{ budget, workers, maxConfigs, trials bool }
	want := map[string]caps{
		"sha":       {budget: true, workers: true, maxConfigs: true},
		"hyperband": {budget: true},
		"bohb":      {budget: true},
		"asha":      {budget: true, workers: true, maxConfigs: true},
		"pasha":     {budget: true, maxConfigs: true},
		"dehb":      {budget: true},
		"random":    {trials: true},
		"smac":      {trials: true},
		"tpe":       {trials: true},
		"grid":      {maxConfigs: true},
	}
	for _, info := range Methods() {
		w, ok := want[info.Name]
		if !ok {
			t.Errorf("unexpected registered method %q", info.Name)
			continue
		}
		got := caps{info.BudgetAware, info.HonorsWorkers, info.HonorsMaxConfigs, info.HonorsTrials}
		if got != w {
			t.Errorf("%s capabilities = %+v, want %+v", info.Name, got, w)
		}
		if info.Description == "" {
			t.Errorf("%s has no description", info.Name)
		}
	}
}

// TestRegisterRejectsDuplicates verifies the init-time guard rails.
func TestRegisterRejectsDuplicates(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("empty name", func() {
		RegisterFunc(MethodInfo{}, nil)
	})
	mustPanic("duplicate canonical name", func() {
		RegisterFunc(MethodInfo{Name: "sha"}, nil)
	})
	mustPanic("alias colliding with existing name", func() {
		RegisterFunc(MethodInfo{Name: "brandnew", Aliases: []string{"hb"}}, nil)
	})
}
