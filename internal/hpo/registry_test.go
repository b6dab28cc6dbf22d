package hpo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestNoPerMethodAPI parses the package source and fails when it exports a
// function returning (*Result, error) or an option type beside RunOptions
// and EnhancedOptions: a method is reached through the registry and tuned
// by RunOptions alone, so a per-method entry point or knob cannot come
// back unnoticed.
func TestNoPerMethodAPI(t *testing.T) {
	fset := token.NewFileSet()
	noTests := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, ".", noTests, 0)
	if err != nil {
		t.Fatal(err)
	}
	types := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil && decl.Name.IsExported() && returnsResultErr(decl) {
						t.Errorf("%s: exported entry point %s; register the method instead", fset.Position(decl.Pos()), decl.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						types++
						name := ts.Name.Name
						if ast.IsExported(name) && strings.HasSuffix(name, "Options") && name != "RunOptions" && name != "EnhancedOptions" {
							t.Errorf("%s: exported option type %s; tune methods with RunOptions", fset.Position(ts.Pos()), name)
						}
					}
				}
			}
		}
	}
	if types == 0 {
		t.Fatal("found no type declarations; the scanner is broken")
	}
}

// returnsResultErr matches the signature suffix (*Result, error) of a
// method's run.
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

// TestRegistryNamesUniqueAndNonEmpty: every name and alias in the registry
// table is non-empty and resolves to one method only, and the table is in
// canonical-name order, the order Methods and MethodNames promise.
func TestRegistryNamesUniqueAndNonEmpty(t *testing.T) {
	owner := map[string]string{}
	for i, m := range registry {
		info := m.Info()
		if i > 0 && registry[i-1].info.Name >= info.Name {
			t.Errorf("registry out of order: %q before %q", registry[i-1].info.Name, info.Name)
		}
		if m.run == nil {
			t.Errorf("method %q has no entry point", info.Name)
		}
		for _, name := range append([]string{info.Name}, info.Aliases...) {
			if name == "" {
				t.Errorf("method %q has an empty name or alias", info.Name)
			}
			if prev, dup := owner[name]; dup {
				t.Errorf("name %q belongs to both %q and %q", name, prev, info.Name)
			}
			owner[name] = info.Name
		}
	}
}
