package vexec

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

type emitted struct{ lb, lr, rb, rr int32 }

func collectJoin(left []*storage.Batch, lcol int, right []*storage.Batch, rcol int, buildLeft bool) []emitted {
	var out []emitted
	JoinBatches(left, lcol, right, rcol, buildLeft, func(lb, lr, rb, rr int32) {
		out = append(out, emitted{lb, lr, rb, rr})
	})
	return out
}

func idBatch(t *testing.T, ids ...types.Value) *storage.Batch {
	t.Helper()
	schema := types.NewSchema(types.Column{Name: "id", T: ids[0].T})
	rows := make([]types.Row, len(ids))
	for i, v := range ids {
		rows[i] = types.Row{v}
	}
	return mkBatch(t, schema, rows)
}

func TestJoinBatchesIntKeysBuildSideInvariant(t *testing.T) {
	// Left ids: [1, 2, 2, NULL, 3] across two batches; right: [2, 2, 3, NULL, 5].
	left := []*storage.Batch{
		idBatch(t, i64(1), i64(2), i64(2)),
		idBatch(t, types.NullValue(types.Int64), i64(3)),
	}
	right := []*storage.Batch{idBatch(t, i64(2), i64(2), i64(3), types.NullValue(types.Int64), i64(5))}

	want := []emitted{
		{0, 1, 0, 0}, {0, 1, 0, 1}, // left row (0,1)=2 matches right rows 0,1
		{0, 2, 0, 0}, {0, 2, 0, 1}, // left row (0,2)=2
		{1, 1, 0, 2}, // left row (1,1)=3 matches right row 2; NULLs never join
	}
	probeRight := collectJoin(left, 0, right, 0, false)
	if !reflect.DeepEqual(probeRight, want) {
		t.Fatalf("build right:\n got %v\nwant %v", probeRight, want)
	}
	// Building the left side instead must emit the identical left-major
	// sequence — build-side choice is a cost decision, not a semantic one.
	buildLeft := collectJoin(left, 0, right, 0, true)
	if !reflect.DeepEqual(buildLeft, want) {
		t.Fatalf("build left:\n got %v\nwant %v", buildLeft, want)
	}
}

func TestJoinBatchesGenericKeys(t *testing.T) {
	left := []*storage.Batch{idBatch(t, str("a"), str("b"), types.NullValue(types.Varchar))}
	right := []*storage.Batch{idBatch(t, str("b"), str("b"), str("c"))}
	want := []emitted{{0, 1, 0, 0}, {0, 1, 0, 1}}
	for _, bl := range []bool{false, true} {
		got := collectJoin(left, 0, right, 0, bl)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("buildLeft=%v:\n got %v\nwant %v", bl, got, want)
		}
	}
}

func TestJoinBatchesFloatIntNormalization(t *testing.T) {
	// 2.0 joins the integer 2; 2.5 joins nothing.
	left := []*storage.Batch{idBatch(t, f64(2.0), f64(2.5))}
	right := []*storage.Batch{idBatch(t, i64(2), i64(3))}
	want := []emitted{{0, 0, 0, 0}}
	for _, bl := range []bool{false, true} {
		got := collectJoin(left, 0, right, 0, bl)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("buildLeft=%v:\n got %v\nwant %v", bl, got, want)
		}
	}
}

func TestJoinBatchesEmptySides(t *testing.T) {
	b := idBatch(t, i64(1))
	if got := collectJoin(nil, 0, []*storage.Batch{b}, 0, false); got != nil {
		t.Fatalf("empty left joined: %v", got)
	}
	if got := collectJoin([]*storage.Batch{b}, 0, nil, 0, true); got != nil {
		t.Fatalf("empty right joined: %v", got)
	}
}

func TestJoinBatchesRespectsSelection(t *testing.T) {
	// A narrowed selection vector on either side excludes unselected rows.
	left := []*storage.Batch{idBatch(t, i64(1), i64(2), i64(3))}
	left[0].Sel = []int32{0, 2}
	right := []*storage.Batch{idBatch(t, i64(2), i64(3))}
	want := []emitted{{0, 2, 0, 1}}
	for _, bl := range []bool{false, true} {
		got := collectJoin(left, 0, right, 0, bl)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("buildLeft=%v:\n got %v\nwant %v", bl, got, want)
		}
	}
}

// TestHashJoinOutputForms: HashJoin's rows are JoinBatches' pairs, left
// columns then right, and its batches take the form the build table allows.
// To unique keys with the probe side on the left, each probe batch that
// matched leaves with its own vectors, its selection narrowed and no stored
// hashes; otherwise the probe side is gathered into one batch. Either way the
// build side leaves as DictColumns that share one codes vector, one code per
// physical row and each in range, over dense dictionaries.
func TestHashJoinOutputForms(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	schema := types.NewSchema(types.Column{Name: "k", T: types.Int64}, types.Column{Name: "v", T: types.Varchar})
	side := func(unique bool) []*storage.Batch {
		var out []*storage.Batch
		keys := rng.Perm(60)
		for b := 0; b < 3; b++ {
			var rows []types.Row
			for n := 1 + rng.Intn(20); n > 0; n-- {
				k := i64(int64(rng.Intn(30)))
				if unique {
					k, keys = i64(int64(keys[0])), keys[1:]
				}
				if rng.Intn(8) == 0 {
					k = types.NullValue(types.Int64)
				}
				rows = append(rows, types.Row{k, str(fmt.Sprint("v", rng.Intn(4)))})
			}
			batch := mkBatch(t, schema, rows)
			batch.Sel = slices.DeleteFunc(batch.Sel, func(int32) bool { return rng.Intn(4) == 0 })
			out = append(out, batch)
		}
		return out
	}
	// uniqueKeys reports whether no two selected rows share a non-NULL key.
	uniqueKeys := func(batches []*storage.Batch) bool {
		seen := make(map[int64]bool)
		for _, b := range batches {
			for _, i := range b.Sel {
				if v := b.Cols[0].Get(int(i)); !v.Null {
					if seen[v.I] {
						return false
					}
					seen[v.I] = true
				}
			}
		}
		return true
	}
	forms := map[bool]int{}
	for trial := 0; trial < 40; trial++ {
		unique, buildLeft := trial%2 == 0, trial%4 >= 2
		left, right := side(unique && buildLeft), side(unique && !buildLeft)
		spec := JoinSpec{LeftKey: 0, RightKey: 0, BuildLeft: buildLeft}
		if trial%3 == 0 {
			spec.LeftCols, spec.RightCols = []int{1}, []int{1, 0}
		}
		pick := func(cols []int) []int {
			if cols == nil {
				return []int{0, 1}
			}
			return cols
		}
		var want []types.Row
		JoinBatches(left, 0, right, 0, buildLeft, func(lb, lr, rb, rr int32) {
			var row types.Row
			for _, c := range pick(spec.LeftCols) {
				row = append(row, left[lb].Cols[c].Get(int(lr)))
			}
			for _, c := range pick(spec.RightCols) {
				row = append(row, right[rb].Cols[c].Get(int(rr)))
			}
			want = append(want, row)
		})
		out, shared, err := HashJoin(left, right, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := storage.Materialize(out); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: rows\n %v\nwant %v", trial, got, want)
		}
		if want := !buildLeft && uniqueKeys(right); shared != want {
			t.Fatalf("trial %d (unique build keys %v, buildLeft %v): shared = %v", trial, want, buildLeft, shared)
		}
		forms[shared]++
		leftWidth := len(pick(spec.LeftCols))
		for _, b := range out {
			if b.Hashes != nil {
				t.Fatalf("trial %d: a join's batch carries stored hashes", trial)
			}
			width := b.Cols[0].Len()
			var codes []int32
			for j, c := range b.Cols {
				if c.Len() != width {
					t.Fatalf("trial %d: column %d holds %d rows, column 0 %d", trial, j, c.Len(), width)
				}
				if (j < leftWidth) == buildLeft {
					d, ok := c.(*storage.DictColumn)
					if !ok {
						t.Fatalf("trial %d: build column %d is a %T", trial, j, c)
					}
					if codes == nil {
						codes = d.Codes
					} else if &codes[0] != &d.Codes[0] {
						t.Fatalf("trial %d: build column %d has codes of its own", trial, j)
					}
					if storage.Densify(d.Dict) != d.Dict {
						t.Fatalf("trial %d: build column %d's dictionary is a %T", trial, j, d.Dict)
					}
					for _, code := range d.Codes {
						if code < 0 || int(code) >= d.Dict.Len() {
							t.Fatalf("trial %d: code %d outside a %d-row dictionary", trial, code, d.Dict.Len())
						}
					}
				}
			}
			if !shared {
				continue
			}
			probe := slices.IndexFunc(left, func(l *storage.Batch) bool { return l.Cols[pick(spec.LeftCols)[0]] == b.Cols[0] })
			if probe < 0 || !slices.IsSorted(b.Sel) || len(b.Sel) > len(left[probe].Sel) {
				t.Fatalf("trial %d: a shared batch is not a probe batch narrowed: %v", trial, b.Sel)
			}
		}
	}
	if forms[true] == 0 || forms[false] == 0 {
		t.Fatalf("trials took one form only: %v", forms)
	}
}

func TestJoinKeyOf(t *testing.T) {
	if _, ok := JoinKeyOf(types.NullValue(types.Int64)); ok {
		t.Fatal("NULL should produce no join key")
	}
	ik, _ := JoinKeyOf(i64(2))
	fk, _ := JoinKeyOf(f64(2.0))
	if ik != fk {
		t.Fatalf("2 and 2.0 keys differ: %v vs %v", ik, fk)
	}
	fk2, _ := JoinKeyOf(f64(2.5))
	if ik == fk2 {
		t.Fatal("2 and 2.5 keys collide")
	}
}

// TestJoinBatchesDuplicateBuildKeysInScanOrder: a key held by several build
// rows, across batches and in runs within one, emits those rows in build scan
// order, whichever side is built.
func TestJoinBatchesDuplicateBuildKeysInScanOrder(t *testing.T) {
	runs := idBatch(t, i64(3), i64(3), i64(1), i64(3), i64(3))
	right := []*storage.Batch{idBatch(t, i64(3), i64(2), i64(3)), runs}
	left := []*storage.Batch{idBatch(t, i64(3), i64(1), i64(3))}
	want := []emitted{
		{0, 0, 0, 0}, {0, 0, 0, 2}, {0, 0, 1, 0}, {0, 0, 1, 1}, {0, 0, 1, 3}, {0, 0, 1, 4},
		{0, 1, 1, 2},
		{0, 2, 0, 0}, {0, 2, 0, 2}, {0, 2, 1, 0}, {0, 2, 1, 1}, {0, 2, 1, 3}, {0, 2, 1, 4},
	}
	for _, bl := range []bool{false, true} {
		if got := collectJoin(left, 0, right, 0, bl); !reflect.DeepEqual(got, want) {
			t.Fatalf("buildLeft=%v:\n got %v\nwant %v", bl, got, want)
		}
	}
}

// TestJoinBatchesMatchNestedLoop diffs the hash join against a nested loop
// over JoinKeyOf keys, with enough distinct INTEGER build keys that the int
// table grows past its first size, duplicates and NULLs on both sides, runs
// of equal keys, and a FLOAT probe side (integral values match, others do not).
func TestJoinBatchesMatchNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	side := func(batches int, floats bool) []*storage.Batch {
		var out []*storage.Batch
		for ; batches > 0; batches-- {
			// A batch of runs holds runs of five to eight equal keys and no NULLs.
			runs := !floats && rng.Intn(3) == 0
			null := types.NullValue(types.Int64)
			if floats {
				null = types.NullValue(types.Float64)
			}
			var rows []types.Value
			for n := rng.Intn(250); n > 0; n-- {
				k := int64(rng.Intn(1500))
				switch {
				case runs:
					for reps := 5 + rng.Intn(4); reps > 0; reps-- {
						rows = append(rows, i64(k))
					}
				case rng.Intn(20) == 0:
					rows = append(rows, null)
				case floats && rng.Intn(3) == 0:
					rows = append(rows, f64(float64(k)+0.5))
				case floats:
					rows = append(rows, f64(float64(k)))
				default:
					rows = append(rows, i64(k))
				}
			}
			b := idBatch(t, rows...)
			b.Sel = slices.DeleteFunc(b.Sel, func(int32) bool { return rng.Intn(6) == 0 })
			out = append(out, b)
		}
		return out
	}
	nested := func(left, right []*storage.Batch) []emitted {
		var out []emitted
		for lb, l := range left {
			for _, lr := range l.Sel {
				lk, ok := JoinKeyOf(l.Cols[0].Get(int(lr)))
				if !ok {
					continue
				}
				for rb, r := range right {
					for _, rr := range r.Sel {
						if rk, ok := JoinKeyOf(r.Cols[0].Get(int(rr))); ok && rk == lk {
							out = append(out, emitted{int32(lb), lr, int32(rb), rr})
						}
					}
				}
			}
		}
		return out
	}
	for trial := 0; trial < 4; trial++ {
		ints, mixed := side(5, false), side(3, trial%2 == 1)
		if tbl := buildJoinTable(ints, 0); tbl.ints == nil || len(tbl.ints.slots) <= 64 {
			t.Fatal("the int build side never left its first table size")
		}
		for _, bl := range []bool{false, true} {
			want := nested(mixed, ints)
			if got := collectJoin(mixed, 0, ints, 0, bl); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, int keys built %v: %d pairs, want %d", trial, bl, len(got), len(want))
			}
			want = nested(ints, mixed)
			if got := collectJoin(ints, 0, mixed, 0, bl); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, int keys probing, buildLeft=%v: %d pairs, want %d", trial, bl, len(got), len(want))
			}
		}
	}
}
