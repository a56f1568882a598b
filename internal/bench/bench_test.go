package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"

	"vsfabric/internal/sim"
)

// TestRegistryComplete: one experiment per table/figure of §4, plus MD and
// the ablations.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig6", "table2", "fig7", "fig8", "fig9", "table3",
		"fig10", "fig11", "fig12", "table4", "md",
		"ablation_locality", "ablation_encoding",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if got := len(All()); got != len(want) {
		t.Errorf("registry has %d experiments, want %d", got, len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id should not resolve")
	}
}

// TestFabricMeasurementPipeline smoke-tests the measure path end to end at a
// tiny scale: real run → trace → simulate → sane positive duration.
func TestFabricMeasurementPipeline(t *testing.T) {
	f, err := newFabric(2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2v, err := f.runS2V(d1Builder(2000, 10, 4), "d1", 4, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2v <= 0 || s2v > 1e5 {
		t.Errorf("S2V simulated seconds = %v", s2v)
	}
	v2s, err := f.runV2S("d1", 4, 100, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2s <= 0 || v2s > 1e5 {
		t.Errorf("V2S simulated seconds = %v", v2s)
	}
	// Scaling monotonicity: 10x the data takes longer.
	v2s10, err := f.runV2S("d1", 4, 1000, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2s10 <= v2s {
		t.Errorf("10x scale should be slower: %v vs %v", v2s10, v2s)
	}
}

// TestFig11Fast runs the cheapest real experiment end to end and checks the
// headline orderings the paper reports.
func TestFig11Fast(t *testing.T) {
	exp, _ := ByID("fig11")
	rep, err := exp.Run(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %v", rep.Rows)
	}
	// At 1M rows JDBC must be catastrophically slower than S2V.
	last := rep.Rows[len(rep.Rows)-1]
	s2v := parseSecs(t, last[1])
	jdbc := parseSecs(t, last[2])
	if jdbc < 50*s2v {
		t.Errorf("1M rows: JDBC %v vs S2V %v — expected >50x gap", jdbc, s2v)
	}
}

func parseSecs(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, " s"), 64)
	if err != nil {
		t.Fatalf("bad seconds %q: %v", s, err)
	}
	return v
}

// TestUtilizationSeriesShape checks Table 2's mechanism: at low parallelism
// the node NIC is far from saturated; at higher parallelism it saturates.
func TestUtilizationSeriesShape(t *testing.T) {
	f, err := newFabric(2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.runS2V(d1Builder(4000, 20, 8), "d1", 8, 2000, nil); err != nil {
		t.Fatal(err)
	}
	low, err := f.runV2SUtilization("d1", 2, 2000, 100)
	if err != nil {
		t.Fatal(err)
	}
	high, err := f.runV2SUtilization("d1", 16, 2000, 100)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(res *sim.Result) float64 {
		util := res.Utilization["out:v0"]
		if len(util) == 0 {
			return 0
		}
		total := 0.0
		n := 0
		for _, u := range util[:min(20, len(util))] {
			total += u.Used
			n++
		}
		return total / float64(n)
	}
	lo, hi := avg(low), avg(high)
	if hi <= lo {
		t.Errorf("higher parallelism should raise NIC usage: %v vs %v", lo, hi)
	}
	if hi < 100e6 {
		t.Errorf("16 connections should saturate the NIC, got %v B/s", hi)
	}
}

// TestFig12HDFSReproducible: HDFS places a block by its path and index, not by
// the order concurrent writers arrive, so three runs of fig12 report the same
// HDFS read and write seconds.
func TestFig12HDFSReproducible(t *testing.T) {
	exp, _ := ByID("fig12")
	var first map[string]string
	for run := 0; run < 3; run++ {
		rep, err := exp.Run(RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, row := range rep.Rows {
			if strings.HasPrefix(row[0], "HDFS ") {
				got[row[0]] = row[1]
			}
		}
		if len(got) != 2 {
			t.Fatalf("run %d: HDFS rows %v, want read and write", run, got)
		}
		if first == nil {
			first = got
			continue
		}
		for method, secs := range first {
			if got[method] != secs {
				t.Errorf("run %d: %s = %s, first run %s", run, method, got[method], secs)
			}
		}
	}
}

// TestTitlesPrintPercentOnce: experiment and report titles and paper lines
// are printed with %s, so a "%%" in one of them prints doubled. Every
// string literal given to a Title or Paper field in the package is checked.
func TestTitlesPrintPercentOnce(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				kv, ok := n.(*ast.KeyValueExpr)
				if !ok {
					return true
				}
				key, ok := kv.Key.(*ast.Ident)
				lit, isLit := kv.Value.(*ast.BasicLit)
				if !ok || !isLit || lit.Kind != token.STRING || key.Name != "Title" && key.Name != "Paper" {
					return true
				}
				checked++
				if strings.Contains(lit.Value, "%%") {
					t.Errorf("%s: %s %s prints %%%% doubled", fset.Position(lit.Pos()), key.Name, lit.Value)
				}
				return true
			})
		}
	}
	if checked < len(All()) {
		t.Fatalf("checked %d Title/Paper literals, fewer than the %d experiments", checked, len(All()))
	}
}
