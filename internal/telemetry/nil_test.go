package telemetry

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestNilHandlesAreNoOps calls every exported method of every handle
// type on a nil receiver, with zero-valued arguments (io.Discard for a
// writer). A component that was never instrumented carries nil handles,
// so every call through one must stay a no-op, never a panic. The test
// also reads the package's source: an exported type with pointer-receiver
// methods that is missing from the list below fails it, so a new handle
// cannot dodge the check.
func TestNilHandlesAreNoOps(t *testing.T) {
	handles := []any{
		(*Registry)(nil),
		(*Counter)(nil),
		(*Gauge)(nil),
		(*Histogram)(nil),
		(*Span)(nil),
		(*Lifecycle)(nil),
		(*Trace)(nil),
		(*EventRing)(nil),
	}
	writer := reflect.TypeOf((*io.Writer)(nil)).Elem()
	listed := make(map[string]bool)
	for _, h := range handles {
		v := reflect.ValueOf(h)
		typ := v.Type().Elem().Name()
		listed[typ] = true
		for i := 0; i < v.NumMethod(); i++ {
			name, m := v.Type().Method(i).Name, v.Method(i)
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				if in := m.Type().In(j); in == writer {
					args[j] = reflect.ValueOf(io.Discard)
				} else {
					args[j] = reflect.Zero(in)
				}
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("(*%s).%s on a nil receiver panics: %v", typ, name, r)
					}
				}()
				if m.Type().IsVariadic() {
					m.CallSlice(args)
				} else {
					m.Call(args)
				}
			}()
		}
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			if id, ok := star.X.(*ast.Ident); ok && id.IsExported() && !listed[id.Name] {
				t.Errorf("%s: *%s has pointer-receiver methods but is not in this test's handle list", fset.Position(fd.Pos()), id.Name)
				listed[id.Name] = true // one report per type
			}
		}
	}
}
