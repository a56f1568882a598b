package storage

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"

	"vsfabric/internal/types"
)

// The golden file was written by commit 761dcd3's MarshalContainer (the last
// commit whose WOS buffered boxed rows) from the rows goldenRows generates:
//
//	golden-761dcd3.vrc2  rows 0..199 inserted at epoch 3, segmented on id;
//	                     every 10th row deleted at epoch 5, rows ≡ 1 (mod 25)
//	                     at epoch 7
func goldenSchema() types.Schema {
	return types.Schema{Cols: []types.Column{
		{Name: "id", T: types.Int64},
		{Name: "run", T: types.Int64}, // 40-row runs: RLE on disk
		{Name: "score", T: types.Float64},
		{Name: "name", T: types.Varchar},
		{Name: "ok", T: types.Bool},
	}}
}

func goldenRows(lo, hi int) []types.Row {
	rows := make([]types.Row, 0, hi-lo)
	for i := lo; i < hi; i++ {
		r := types.Row{
			types.IntValue(int64(i)),
			types.IntValue(int64(i / 40)),
			types.FloatValue(float64(i) * 0.25),
			types.StringValue(fmt.Sprintf("n%d", i%5)),
			types.BoolValue(i%3 == 0),
		}
		if i%13 == 5 {
			r[0] = types.NullValue(types.Int64)
		}
		if i%7 == 3 {
			r[2] = types.NullValue(types.Float64)
		}
		if i%17 == 0 {
			r[3] = types.StringValue("")
		}
		if i%11 == 2 {
			r[3] = types.NullValue(types.Varchar)
		}
		if i%9 == 4 {
			r[4] = types.NullValue(types.Bool)
		}
		rows = append(rows, r)
	}
	return rows
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// keepRows returns the rows of rows whose position keep accepts.
func keepRows(rows []types.Row, keep func(i int) bool) []types.Row {
	var out []types.Row
	for i, r := range rows {
		if keep(i) {
			out = append(out, r)
		}
	}
	return out
}

func TestGoldenContainerLoadsAndRemarshals(t *testing.T) {
	data := readGolden(t, "golden-761dcd3.vrc2")
	c, err := UnmarshalContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Cols[1].(*Int64Column); !ok || c.StartEpoch() != 3 || c.RowCount != 200 {
		t.Fatalf("loaded %d rows at epoch %d, run column %T", c.RowCount, c.StartEpoch(), c.Cols[1])
	}
	s := NewStore(goldenSchema(), []int{0})
	s.AttachContainer(c)
	all := goldenRows(0, 200)
	for epoch, keep := range map[uint64]func(int) bool{
		2: func(int) bool { return false },
		4: func(int) bool { return true },
		5: func(i int) bool { return i%10 != 0 },
		7: func(i int) bool { return i%10 != 0 && i%25 != 1 },
	} {
		sameRows(t, fmt.Sprintf("epoch %d", epoch), collectBatches(t, s, Visibility{Epoch: epoch}, fullRing()), keepRows(all, keep))
	}
	// The stored hashes are the segmentation hashes: a freshly built container
	// of the same rows has the same ones, and the same zone maps.
	fresh, err := rosContainer(all, goldenSchema(), []int{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	fresh.del = c.del
	sameContainers(t, "golden vs rebuilt", []*ROSContainer{c}, []*ROSContainer{fresh})
	for _, cont := range []*ROSContainer{c, fresh} {
		again, err := MarshalContainer(cont)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("re-marshalled container differs from the golden file")
		}
	}
}

// reseal replaces data's trailing CRC with the checksum of its body, so a
// mutated file gets past the checksum and into the decoder.
func reseal(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	return sealCRC(bytes.NewBuffer(bytes.Clone(data[:len(data)-4])))
}

// allocated returns the bytes fn allocates (and whatever the rest of the
// process does meanwhile: callers leave slack).
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeBound is the most the container decoder may allocate for an n-byte
// file. Every row costs the file at least 2 bytes outside the columns (its
// hash takes 4) and every column at least 6 (schema entry, chunk header), so a
// file holds at most n²/12 cells however its RLE chunks expand;
// 64 bytes covers a decoded cell (a 16-byte string header, its NULL flag,
// append's regrowth) and the per-byte term the rest.
func decodeBound(n int) uint64 { return 1<<18 + 64*uint64(n) + 64*uint64(n)*uint64(n)/12 }

// FuzzUnmarshalContainer: no file panics the container decoder or makes it
// allocate beyond decodeBound, and a container it accepts scans and marshals.
func FuzzUnmarshalContainer(f *testing.F) {
	golden := readGolden(f, "golden-761dcd3.vrc2")
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		data = reseal(data)
		var c *ROSContainer
		var err error
		if got, most := allocated(func() { c, err = UnmarshalContainer(data) }), decodeBound(len(data)); got > most {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, most)
		}
		if err != nil {
			return
		}
		s := NewStore(c.Schema, nil)
		s.AttachContainer(c)
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted container is invalid: %v", err)
		}
		collectBatches(t, s, Visibility{Epoch: ProvisionalBase - 1}, fullRing())
		if c.StartEpoch() < ProvisionalBase {
			if _, err := MarshalContainer(c); err != nil {
				t.Fatalf("accepted container does not marshal: %v", err)
			}
		}
	})
}
