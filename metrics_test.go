package qens

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestMetricsCatalogued holds README's Metrics table to the code. Every
// metric family that non-test code of internal/ or cmd/ registers on a
// telemetry.Registry (Counter, Gauge, Histogram) must have exactly one
// row, of the type of the method that registers it; every row must name
// a registered family; every SetHelp must describe a registered family;
// and every registration must name its family by a string literal, so
// that this static check sees all of them, the lazily registered ones
// included.
func TestMetricsCatalogued(t *testing.T) {
	calls, err := findMetricCalls(".")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := readMetricsTable("README.md")
	if err != nil {
		t.Fatal(err)
	}
	registered := make(map[string]string) // family → type
	for _, c := range calls {
		if c.method == "SetHelp" {
			continue
		}
		typ := strings.ToLower(c.method)
		if c.name == "" {
			t.Errorf("%s: %s registers a family whose name is not a string literal", c.pos, c.method)
			continue
		}
		if prev, ok := registered[c.name]; ok && prev != typ {
			t.Errorf("%s: %s registered as %s here and as %s elsewhere", c.pos, c.name, typ, prev)
		}
		registered[c.name] = typ
	}
	for _, c := range calls {
		if c.method != "SetHelp" {
			continue
		}
		if _, ok := registered[c.name]; !ok {
			t.Errorf("%s: SetHelp for %q, which nothing registers", c.pos, c.name)
		}
	}
	names := make([]string, 0, len(registered))
	for name := range registered {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		typ, ok := rows[name]
		switch {
		case !ok:
			t.Errorf("%s (%s) is registered but has no row in README's Metrics table", name, registered[name])
		case typ != registered[name]:
			t.Errorf("README's Metrics table gives %s type %q; the code registers a %s", name, typ, registered[name])
		}
	}
	for name := range rows {
		if _, ok := registered[name]; !ok {
			t.Errorf("README's Metrics table has a row for %s, which nothing registers", name)
		}
	}
}

// metricCall is one Registry.Counter/Gauge/Histogram/SetHelp call; name
// is "" when the family name is not a string literal.
type metricCall struct {
	pos          token.Position
	method, name string
}

// findMetricCalls type-checks the non-test code of internal/ and cmd/
// and returns every metric call on a *telemetry.Registry made outside
// internal/telemetry.
func findMetricCalls(root string) ([]metricCall, error) {
	const telemetryPath = "qens/internal/telemetry"
	l := newReachLoader(root)
	var out []metricCall
	visit := func(path string, p *reachPkg) {
		if path == telemetryPath {
			return
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != telemetryPath {
					return true
				}
				recv := fn.Type().(*types.Signature).Recv()
				if recv == nil || namedOf(recv.Type()).Obj().Name() != "Registry" {
					return true
				}
				switch fn.Name() {
				case "Counter", "Gauge", "Histogram", "SetHelp":
					c := metricCall{pos: l.fset.Position(call.Pos()), method: fn.Name()}
					if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						c.name, _ = strconv.Unquote(lit.Value)
					}
					out = append(out, c)
				}
				return true
			})
		}
	}
	for _, top := range []string{"cmd", "internal"} {
		if err := l.loadTree(top, visit); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readMetricsTable parses README's "| Metric | Type | Labels | Meaning |"
// table into family → type. A row must name one family in backticks,
// once in the table.
func readMetricsTable(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows := make(map[string]string)
	in := false
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if !in {
			in = text == "| Metric | Type | Labels | Meaning |"
			continue
		}
		if !strings.HasPrefix(text, "|") {
			break
		}
		cells := strings.Split(strings.Trim(text, "|"), "|")
		if strings.HasPrefix(strings.TrimSpace(cells[0]), "---") {
			continue
		}
		if len(cells) < 4 {
			return nil, fmt.Errorf("%s:%d: a Metrics row needs 4 cells: %s", path, line, text)
		}
		cell := strings.TrimSpace(cells[0])
		name := strings.Trim(cell, "`")
		if name == "" || cell != "`"+name+"`" || strings.ContainsAny(name, "` /") {
			return nil, fmt.Errorf("%s:%d: a Metrics row names one family in backticks: %s", path, line, cells[0])
		}
		if _, dup := rows[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s has two rows", path, line, name)
		}
		rows[name] = strings.TrimSpace(cells[1])
	}
	if !in {
		return nil, fmt.Errorf("%s: no Metrics table", path)
	}
	return rows, sc.Err()
}
