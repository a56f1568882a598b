package main

import (
	"fmt"
	"math"
	"sort"

	"vsfabric/internal/types"
	"vsfabric/internal/workload"
)

// filterCut is the sql_mix filter statement's bound on c1: with c1 uniform
// in [0,1) it keeps about 1 % of a pcol value's rows.
const filterCut = 0.01

// pushdownCut is v2s_pushdown's bound on pcol: 5 of 100 values, 5 % of rows.
const pushdownCut = 5

// rowSum is an order-independent digest of a set of rows: how many, and the
// wrapping sum of c0's bit patterns. Any lost, duplicated or altered row
// changes it whatever order the rows arrive in.
type rowSum struct {
	n      int64
	c0bits uint64
}

func (s *rowSum) add(c0 float64) {
	s.n++
	s.c0bits += math.Float64bits(c0)
}

// perPcol is what the generator says about the rows of one pcol value.
type perPcol struct {
	all    rowSum
	filter rowSum    // rows with c1 < filterCut
	sumC1  float64   // for SUM(c1)
	sumC2  float64   // for AVG(c2)
	c0     []float64 // sorted, for "is this c0 one of the pcol's rows"
}

// expected holds everything the correctness gates compare against, computed
// from the generator alone — never read back from the system under test.
type expected struct {
	pcol     [dimA]perPcol
	all      rowSum // every row
	pushdown rowSum // rows with pcol < pushdownCut
	sumC0    float64
}

// expect regenerates rows [0,rows) of the d1 dataset for seed.
func expect(seed uint64, rows int64) *expected {
	e := &expected{}
	for i := int64(0); i < rows; i++ {
		r := workload.D1WithIntRow(i, d1Cols, seed)
		p, c0, c1, c2 := r[0].I, r[1].F, r[2].F, r[3].F
		pp := &e.pcol[p]
		pp.all.add(c0)
		if c1 < filterCut {
			pp.filter.add(c0)
		}
		pp.sumC1 += c1
		pp.sumC2 += c2
		pp.c0 = append(pp.c0, c0)
		e.all.add(c0)
		if p < pushdownCut {
			e.pushdown.add(c0)
		}
		e.sumC0 += c0
	}
	for p := range e.pcol {
		sort.Float64s(e.pcol[p].c0)
	}
	return e
}

// hasC0 reports whether some row with this pcol carries c0.
func (e *expected) hasC0(pcol int64, c0 float64) bool {
	s := e.pcol[pcol].c0
	i := sort.SearchFloat64s(s, c0)
	return i < len(s) && s[i] == c0
}

// digest sums the rows a query returned; c0col is c0's position in them.
func digest(rows []types.Row, c0col int) rowSum {
	var s rowSum
	for _, r := range rows {
		s.add(r[c0col].F)
	}
	return s
}

func (s rowSum) check(what string, want rowSum) error {
	if s != want {
		return fmt.Errorf("%s: got %d rows (c0 digest %#x), generator says %d (%#x)", what, s.n, s.c0bits, want.n, want.c0bits)
	}
	return nil
}

// near compares float aggregates the engine may have summed in another
// order than the generator did.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}
