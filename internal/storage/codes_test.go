package storage

import (
	"math"
	"testing"

	"vsfabric/internal/types"
)

// TestContainerCodesFollowZoneMaps: a container keeps codes for a null-free
// INTEGER column whose zone map spans less than CodeSpan from CodeRows rows
// up, and nowhere else; it puts them on a header of its own, leaving the
// caller's vectors as they were, and keeps a coded header it is handed as it
// is. A container file loads to the same codes, and a file whose zone map
// lies about a column's values loads with no codes for it.
func TestContainerCodesFollowZoneMaps(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "k", T: types.Int64}, types.Column{Name: "f", T: types.Float64})
	build := func(n int, base int64) (*ROSContainer, []Column) {
		t.Helper()
		k, f := &Int64Column{Vals: make([]int64, n)}, &Float64Column{Vals: make([]float64, n)}
		for i := range k.Vals {
			k.Vals[i] = base + int64(i*7%CodeSpan)
		}
		cols := []Column{k, f}
		c, err := newContainer(cols, n, schema, make([]uint32, n), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c, cols
	}
	checkCodes := func(what string, c *ROSContainer, want bool, base int64) {
		t.Helper()
		k := c.Cols[0].(*Int64Column)
		got, codes := k.Codes()
		if (codes != nil) != want {
			t.Fatalf("%s: codes %v, want %v", what, codes != nil, want)
		}
		for i, v := range k.Vals {
			if codes != nil && (got != base || int64(codes[i]) != v-base) {
				t.Fatalf("%s: row %d holds %d as code %d over %d", what, i, v, codes[i], got)
			}
		}
	}
	for _, n := range []int{1, CodeRows - 1} {
		c, _ := build(n, 5)
		checkCodes("a container below CodeRows", c, false, 0)
	}
	for _, base := range []int64{math.MinInt64, -3, math.MaxInt64 - CodeSpan + 1} {
		c, cols := build(CodeRows, base)
		checkCodes("a container of CodeRows rows", c, true, base)
		if _, codes := cols[0].(*Int64Column).Codes(); codes != nil || c.Cols[0] == cols[0] || c.Cols[1] != cols[1] {
			t.Fatal("the container wrote its codes on the caller's header, or copied a column it keeps none for")
		}
		again, err := newContainer(c.Cols, c.RowCount, schema, c.Hashes, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if again.Cols[0] != c.Cols[0] {
			t.Fatal("a coded header handed to a container of the same rows was rebuilt")
		}
		data, err := MarshalContainer(c)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := UnmarshalContainer(data)
		if err != nil {
			t.Fatal(err)
		}
		checkCodes("a loaded container", loaded, true, base)
	}

	floats := &Float64Column{Vals: make([]float64, CodeRows)}
	spanned := &Int64Column{Vals: make([]int64, CodeRows)}
	spanned.Vals[9] = CodeSpan // 0 and CodeSpan: max − min is CodeSpan
	withNull := &Int64Column{Vals: make([]int64, CodeRows), Nulls: make([]bool, CodeRows)}
	withNull.Nulls[3] = true
	for what, k := range map[string]*Int64Column{"a column spanning CodeSpan": spanned, "a column with a NULL": withNull} {
		c, err := newContainer([]Column{k, floats}, CodeRows, schema, make([]uint32, CodeRows), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkCodes(what, c, false, 0)
	}

	// A zone map that puts the minimum above a value builds no codes.
	c, _ := build(CodeRows, 0)
	lying := append([]ColStats(nil), c.stats...)
	lying[0].Min = types.IntValue(1)
	if _, codes := coded([]Column{&Int64Column{Vals: c.Cols[0].(*Int64Column).Vals}, c.Cols[1]}, lying, CodeRows)[0].(*Int64Column).Codes(); codes != nil {
		t.Fatal("a zone map that lies about the minimum built codes")
	}
}
