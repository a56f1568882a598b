package vertica

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"vsfabric/internal/types"
)

// This file is the seeded SELECT generator: random statements over the
// shapesFixture relations — one to three of them, a view and a self-join
// instance included — with a random WHERE, either GROUP BY + aggregates or a
// select list, and ORDER BY / LIMIT. Every statement must equal the oracle
// row for row, and every syntactic join order of the same statement must
// return the same multiset. A failure prints the seed, the statement's index
// and its SQL, which replays it.

type genCol struct {
	name string
	kind byte // 'i', 'f', 's'
	max  int  // literal range of an INTEGER / FLOAT column
}

type genRel struct {
	table, alias string
	cols         []genCol
}

var (
	genM    = []genCol{{"id", 'i', 120}, {"k", 'i', 12}, {"v", 'f', 40}, {"label", 's', 0}}
	genPool = []genRel{
		{"m", "m", genM},
		{"d", "d", []genCol{{"k", 'i', 12}, {"label", 's', 0}, {"w", 'i', 10}}},
		{"e", "e", []genCol{{"k", 'i', 12}, {"tag", 's', 0}, {"w", 'i', 9}}},
		{"mv", "mv", []genCol{{"id", 'i', 120}, {"k", 'i', 12}, {"v2", 'f', 80}, {"label", 's', 0}}},
		{"m", "m2", genM},
	}
	genStrings = []string{"'ant'", "'bee'", "'cat'", "'dog'", "'tag3'", "'zzz'"}
)

// genQuery is one generated statement, kept in parts so the FROM clause can be
// re-rendered in another join order.
type genQuery struct {
	rels   []genRel
	parent []int // parent[i] < i: the relation rels[i] joins to, on k
	items  string
	tail   string // WHERE … GROUP BY … ORDER BY …
	limit  string
}

// from renders the FROM clause attaching the relations in the given order, or
// "" when that order leaves a relation with nothing attached to join to.
func (q *genQuery) from(order []int) string {
	ref := func(i int) string {
		if r := q.rels[i]; r.alias != r.table {
			return r.table + " " + r.alias
		}
		return q.rels[i].table
	}
	attached := map[int]bool{order[0]: true}
	sql := " FROM " + ref(order[0])
	for _, i := range order[1:] {
		peer := -1
		for j := range q.rels {
			if attached[j] && (i > 0 && q.parent[i] == j || j > 0 && q.parent[j] == i) {
				peer = j
			}
		}
		if peer < 0 {
			return ""
		}
		attached[i] = true
		sql += fmt.Sprintf(" JOIN %s ON %s.k = %s.k", ref(i), q.rels[peer].alias, q.rels[i].alias)
	}
	return sql
}

func (q *genQuery) sql(order []int, limit bool) string {
	sql := "SELECT " + q.items + q.from(order) + q.tail
	if limit {
		sql += q.limit
	}
	return sql
}

// orders lists every attach order of the statement's relations that its join
// edges allow, the syntactic one first.
func (q *genQuery) orders() [][]int {
	var out [][]int
	var walk func(order []int)
	walk = func(order []int) {
		if len(order) == len(q.rels) {
			if q.from(order) != "" {
				out = append(out, append([]int(nil), order...))
			}
			return
		}
	next:
		for i := range q.rels {
			for _, j := range order {
				if i == j {
					continue next
				}
			}
			walk(append(order, i))
		}
	}
	walk(nil)
	return out
}

// colRef is a column as a statement names it.
type colRef struct {
	sql string
	genCol
}

// genWhere draws a WHERE clause over the columns — up to three comparisons,
// NULL tests and negations joined by AND / OR — or none at all.
func genWhere(rng *rand.Rand, refs []colRef) string {
	pick := func() colRef { return refs[rng.Intn(len(refs))] }
	atom := func() string {
		c := pick()
		if rng.Intn(5) == 0 {
			return c.sql + []string{" IS NULL", " IS NOT NULL"}[rng.Intn(2)]
		}
		op := []string{"<", "<=", "=", "<>", ">", ">="}[rng.Intn(6)]
		var a string
		switch c.kind {
		case 'i':
			if lit := strconv.Itoa(rng.Intn(c.max)); rng.Intn(4) == 0 {
				a = lit + " " + op + " " + c.sql
			} else {
				a = c.sql + " " + op + " " + lit
			}
		case 'f':
			a = fmt.Sprintf("%s %s %.1f", c.sql, op, float64(rng.Intn(2*c.max))/2)
		default:
			a = c.sql + " " + op + " " + genStrings[rng.Intn(len(genStrings))]
		}
		if rng.Intn(6) == 0 {
			a = "NOT (" + a + ")"
		}
		return a
	}
	n := rng.Intn(4)
	if n == 0 {
		return ""
	}
	where := atom()
	for ; n > 1; n-- {
		where = "(" + where + []string{" AND ", " OR "}[rng.Intn(2)] + atom() + ")"
	}
	return " WHERE " + where
}

func generate(rng *rand.Rand) *genQuery {
	q := &genQuery{}
	for _, i := range rng.Perm(len(genPool))[:1+rng.Intn(3)] {
		q.parent = append(q.parent, rng.Intn(max(1, len(q.rels))))
		q.rels = append(q.rels, genPool[i])
	}
	var refs []colRef
	for _, r := range q.rels {
		for _, c := range r.cols {
			name := c.name
			if len(q.rels) > 1 {
				name = r.alias + "." + c.name
			}
			refs = append(refs, colRef{name, c})
		}
	}
	pick := func() colRef { return refs[rng.Intn(len(refs))] }
	numeric := func() colRef {
		for {
			if c := pick(); c.kind != 's' {
				return c
			}
		}
	}

	q.tail = genWhere(rng, refs)

	var items, outNames []string
	add := func(item, alias string) {
		if alias != "" {
			item += " AS " + alias
		} else {
			alias = item
		}
		items, outNames = append(items, item), append(outNames, alias)
	}
	if rng.Intn(2) == 0 {
		var groupBy []string
		for n := rng.Intn(3); n > 0; n-- {
			c := pick()
			groupBy = append(groupBy, c.sql)
			add(c.sql, "")
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			alias := fmt.Sprintf("a%d", len(items))
			switch c := pick(); rng.Intn(7) {
			case 0:
				add("COUNT(*)", alias)
			case 1:
				add("COUNT("+c.sql+")", alias)
			case 2:
				add("MIN("+c.sql+")", alias)
			case 3:
				add("MAX("+c.sql+")", alias)
			case 4:
				add("SUM("+numeric().sql+")", alias)
			case 5:
				add("AVG("+numeric().sql+")", alias)
			default:
				add("SUM("+numeric().sql+" + 1)", alias)
			}
		}
		if len(groupBy) > 0 {
			q.tail += " GROUP BY " + strings.Join(groupBy, ", ")
		}
	} else if len(q.rels) < 3 && rng.Intn(4) == 0 {
		// The engine lists a join's `*` columns in attach order, which the
		// planner may change for a three-way join; it cannot reorder one join.
		items = []string{"*"}
		for _, c := range refs {
			outNames = append(outNames, c.sql)
		}
	} else {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			switch c := pick(); {
			case rng.Intn(4) > 0:
				add(c.sql, "")
			case c.kind == 'i':
				add(c.sql+" + 1", fmt.Sprintf("x%d", len(items)))
			case c.kind == 'f':
				add(c.sql+" * 2", fmt.Sprintf("x%d", len(items)))
			default:
				add(c.sql, fmt.Sprintf("x%d", len(items)))
			}
		}
	}
	q.items = strings.Join(items, ", ")

	// Three relations can run in another attach order than the oracle's, so
	// only a total order makes rows comparable one by one; up to two run in
	// the oracle's order and a partial sort must be stable over it.
	if total := len(q.rels) == 3; total || rng.Intn(2) == 0 {
		rng.Shuffle(len(outNames), func(i, j int) { outNames[i], outNames[j] = outNames[j], outNames[i] })
		if !total {
			outNames = outNames[:1+rng.Intn(len(outNames))]
		}
		for i, name := range outNames {
			outNames[i] = name + []string{"", " DESC"}[rng.Intn(2)]
		}
		q.tail += " ORDER BY " + strings.Join(outNames, ", ")
	}
	if rng.Intn(3) == 0 {
		q.limit = fmt.Sprintf(" LIMIT %d", rng.Intn(16))
	}
	return q
}

// rowMultiset renders a result as sorted row strings, INTEGER 3 and FLOAT 3.0
// alike.
func rowMultiset(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for _, v := range r {
			switch {
			case v.Null:
				sb.WriteString("NULL")
			case v.T == types.Int64 || v.T == types.Float64:
				sb.WriteString(strconv.FormatFloat(v.AsFloat(), 'g', -1, 64))
			default:
				sb.WriteString(strconv.Quote(v.String()))
			}
			sb.WriteByte('|')
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

func TestGeneratedSelectsMatchOracle(t *testing.T) {
	const seed, statements = 16, 200
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	shapesFixture(t, c, s)
	joins, reordered := 0, 0
	for i := 0; i < statements; i++ {
		q := generate(rand.New(rand.NewSource(seed + int64(i))))
		orders := q.orders()
		sql := q.sql(orders[0], true)
		label := fmt.Sprintf("seed %d statement %d: %s", seed, i, sql)
		got, err := s.Execute(sql)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameResults(t, label, got, oracleSelect(t, s, sql))
		if len(orders) == 1 || q.items == "*" {
			continue // `*` lists a join's columns in attach order
		}
		// Metamorphic: whichever relation the statement names first, the same
		// rows come back. LIMIT is left off: it would pick among them.
		joins++
		want := rowMultiset(s.MustExecute(q.sql(orders[0], false)).Rows)
		for _, order := range orders[1:] {
			other := q.sql(order, false)
			res, err := s.Execute(other)
			if err != nil {
				t.Fatalf("%s\n reordered as %s: %v", label, other, err)
			}
			if rows := rowMultiset(res.Rows); strings.Join(rows, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%s\n reordered as %s: %d rows vs %d, multisets differ", label, other, len(rows), len(want))
			}
			reordered++
		}
	}
	if joins < statements/3 {
		t.Fatalf("only %d of %d statements joined: generator broken", joins, statements)
	}
	t.Logf("%d statements, %d with joins, %d reordered variants", statements, joins, reordered)
}
