// Command lintoptions enforces the typed-options API boundary: no exported
// function or method may take a map[string]string options bag. The stringly
// form is quarantined to the External Data Source API surface (the Spark
// interface methods), which is allowlisted below and rejects a key it does
// not know; everything else must accept a typed struct (V2SOptions,
// S2VOptions) so a misspelled field fails at compile time, not deep inside a
// job.
//
// It also flags ad-hoc timeout parameters on exported constructors: a
// Dial*/New*/Connect*/Open* function taking a bare time.Duration grows a
// new variant for every knob (DialTimeout, DialTimeoutWithRetry, ...).
// Constructors take a config struct instead.
//
// Finally, it flags exported functions taking a map[string]interface{} (or
// map[string]any) attribute bag anywhere: APIs spell their inputs as typed
// structs so the compiler — not a runtime type switch — rejects a wrong
// value.
//
// Run as `make lint` (part of `make check`). Exit status 1 lists offenders.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// allowed names the exported map[string]string signatures that are the API
// boundary itself. Keys are "dir/file-relative package path: [Recv.]Func".
var allowed = map[string]bool{
	// Spark External Data Source API fidelity (Table 1 of the paper): the
	// substrate hands sources a string map by contract.
	"internal/spark: DataFrameReader.Options":     true,
	"internal/spark: DataFrameWriter.Options":     true,
	"internal/core: DefaultSource.CreateRelation": true,
	"internal/core: DefaultSource.SaveRelation":   true,
	"internal/jdbcsource: Source.CreateRelation":  true,
	"internal/jdbcsource: Source.SaveRelation":    true,
}

// constructorPrefixes are the exported-function name prefixes the
// timeout-parameter rule applies to.
var constructorPrefixes = []string{"Dial", "New", "Connect", "Open"}

// isDuration reports whether the type expression is time.Duration.
func isDuration(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Duration" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "time"
}

// isConstructor reports whether an exported function name reads as a
// constructor the duration rule covers.
func isConstructor(name string) bool {
	for _, p := range constructorPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// isAnyMap reports whether the type expression is map[string]interface{} or
// map[string]any.
func isAnyMap(e ast.Expr) bool {
	m, ok := e.(*ast.MapType)
	if !ok {
		return false
	}
	k, ok := m.Key.(*ast.Ident)
	if !ok || k.Name != "string" {
		return false
	}
	switch v := m.Value.(type) {
	case *ast.InterfaceType:
		return len(v.Methods.List) == 0
	case *ast.Ident:
		return v.Name == "any"
	}
	return false
}

// isOptionsMap reports whether the type expression is map[string]string.
func isOptionsMap(e ast.Expr) bool {
	m, ok := e.(*ast.MapType)
	if !ok {
		return false
	}
	k, ok := m.Key.(*ast.Ident)
	if !ok || k.Name != "string" {
		return false
	}
	v, ok := m.Value.(*ast.Ident)
	return ok && v.Name == "string"
}

func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}

func lintFile(fset *token.FileSet, root, path string) ([]string, error) {
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var bad []string
	rel, _ := filepath.Rel(root, filepath.Dir(path))
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || !fd.Name.IsExported() {
			continue
		}
		// Unexported receivers keep the whole method unexported.
		rn := recvName(fd)
		if rn != "" && !ast.IsExported(strings.TrimSuffix(rn, ".")) {
			continue
		}
		takesMap, takesAnyMap, takesDuration := false, false, false
		for _, p := range fd.Type.Params.List {
			if isOptionsMap(p.Type) {
				takesMap = true
			}
			if isAnyMap(p.Type) {
				takesAnyMap = true
			}
			if isDuration(p.Type) {
				takesDuration = true
			}
		}
		key := fmt.Sprintf("%s: %s%s", filepath.ToSlash(rel), rn, fd.Name.Name)
		if takesMap && !allowed[key] {
			pos := fset.Position(fd.Pos())
			bad = append(bad, fmt.Sprintf("%s:%d: exported %s%s takes map[string]string; use typed options (V2SOptions/S2VOptions) or allowlist it in cmd/lintoptions",
				pos.Filename, pos.Line, rn, fd.Name.Name))
		}
		if takesAnyMap {
			pos := fset.Position(fd.Pos())
			bad = append(bad, fmt.Sprintf("%s:%d: exported %s%s takes map[string]interface{}; use a typed struct",
				pos.Filename, pos.Line, rn, fd.Name.Name))
		}
		if takesDuration && rn == "" && isConstructor(fd.Name.Name) {
			pos := fset.Position(fd.Pos())
			bad = append(bad, fmt.Sprintf("%s:%d: exported constructor %s takes a bare time.Duration; use a config struct",
				pos.Filename, pos.Line, fd.Name.Name))
		}
	}
	return bad, nil
}

func run() error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	var bad []string
	for _, top := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				if os.IsNotExist(err) {
					return filepath.SkipDir
				}
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			found, err := lintFile(fset, root, path)
			if err != nil {
				return err
			}
			bad = append(bad, found...)
			return nil
		})
		if err != nil {
			return err
		}
	}
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, b)
		}
		return fmt.Errorf("%d offending exported signature(s)", len(bad))
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lintoptions:", err)
		os.Exit(1)
	}
}
