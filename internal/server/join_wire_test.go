package server

import (
	"testing"

	"vsfabric/internal/vertica/scantest"
)

// TestWireJoinOutputForms is the wire leg of TestJoinOutputFormsMatchOracle:
// whichever form a join's steps take, its result over TCP — the build side's
// dictionary-coded columns encoded through their dictionaries — is the
// in-process result cell for cell, kind included. So is the connector's
// describe catalog join, and a table an INSERT…SELECT from a join sent over
// TCP filled.
func TestWireJoinOutputForms(t *testing.T) {
	cl, d := startCluster(t, 3)
	local, err := cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	scantest.BuildJoin(5, func(q string) { local.MustExecute(q) })
	conn, err := d.Connect(bg, cl.Node(1).Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, tc := range scantest.JoinCases() {
		want := local.MustExecute(tc.Query)
		got, err := conn.Execute(bg, tc.Query)
		if err != nil {
			t.Fatalf("%s: %v", tc.Query, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s: empty result, fixture broken", tc.Query)
		}
		typedCells(t, tc.Query+" (in process)", want)
		typedCells(t, tc.Query+" (wire)", got)
		exactResults(t, tc.Query, got, want)
	}
	if _, err := conn.Execute(bg, scantest.JoinInsert); err != nil {
		t.Fatal(err)
	}
	inserted, err := conn.Execute(bg, scantest.JoinInserted)
	if err != nil {
		t.Fatal(err)
	}
	exactResults(t, "jins over TCP", inserted, local.MustExecute(scantest.JoinInserted))
	sel := local.MustExecute(scantest.JoinInsertSelect)
	if diff := scantest.Diff(sel.Schema, inserted.Rows, sel.Schema, sel.Rows); diff != "" {
		t.Fatalf("%s left %s", scantest.JoinInsert, diff)
	}
}
