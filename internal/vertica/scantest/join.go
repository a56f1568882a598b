package scantest

import (
	"fmt"
	"math/rand"
	"strings"
)

// BuildJoin creates the join suites' relations through exec:
//   - jf, the fact table: 300 rows over three ROS containers, its
//     join key k NULL or matching nothing on some rows;
//   - ju, a dimension whose non-NULL keys are unique (plus one NULL-key row),
//     carrying an INTEGER, a FLOAT and a VARCHAR column with NULLs and repeats;
//   - jd, a dimension whose keys repeat;
//   - jg, keyed by ju.g and jd.g;
//   - jins, the target of JoinInsert.
//
// Every FLOAT is a multiple of one half, so a sum is exact in any order.
func BuildJoin(seed int64, exec func(sql string)) {
	rng := rand.New(rand.NewSource(seed))
	orNull := func(p int, v string) string {
		if rng.Intn(p) == 0 {
			return "NULL"
		}
		return v
	}
	half := func(n int) string { return fmt.Sprintf("%.1f", float64(rng.Intn(n))/2) }
	exec("CREATE TABLE jf (id INTEGER, k INTEGER, v FLOAT, s VARCHAR) SEGMENTED BY HASH(id)")
	exec("CREATE TABLE ju (k INTEGER, g INTEGER, n INTEGER, x FLOAT, name VARCHAR) UNSEGMENTED ALL NODES")
	exec("CREATE TABLE jd (k INTEGER, g INTEGER, tag VARCHAR, w FLOAT) SEGMENTED BY HASH(k)")
	exec("CREATE TABLE jg (g INTEGER, label VARCHAR) UNSEGMENTED ALL NODES")
	exec("CREATE TABLE jins (id INTEGER, name VARCHAR, tag VARCHAR, w FLOAT)")

	var ju []string
	for k := 0; k < 12; k++ {
		ju = append(ju, fmt.Sprintf("(%d, %s, %s, %s, %s)", k, orNull(6, fmt.Sprint(k%4)),
			orNull(5, fmt.Sprint(k%5)), orNull(5, half(8)), orNull(5, fmt.Sprintf("'u%d'", k%7))))
	}
	ju = append(ju, "(NULL, 1, 99, 9.5, 'nokey')")
	exec("INSERT INTO ju VALUES " + strings.Join(ju, ", "))
	var jd []string
	for i := 0; i < 30; i++ {
		jd = append(jd, fmt.Sprintf("(%s, %s, 'tag%d', %s)", orNull(8, fmt.Sprint(rng.Intn(10))),
			orNull(6, fmt.Sprint(rng.Intn(4))), i%9, orNull(5, half(10))))
	}
	exec("INSERT INTO jd VALUES " + strings.Join(jd, ", "))
	exec("INSERT INTO jg VALUES (0, 'g0'), (1, 'g1'), (2, NULL), (3, 'g3')")

	var jf []string
	for i := 0; i < 300; i++ {
		jf = append(jf, fmt.Sprintf("(%d, %s, %s, %s)", i, orNull(10, fmt.Sprint(rng.Intn(15))),
			orNull(6, half(40)), orNull(6, []string{"'ant'", "'bee'", "'cat'"}[rng.Intn(3)])))
	}
	exec("INSERT INTO jf VALUES " + strings.Join(jf[:100], ", "))
	exec("INSERT INTO jf VALUES " + strings.Join(jf[100:200], ", "))
	exec("INSERT INTO jf VALUES " + strings.Join(jf[200:], ", "))
}

// JoinForm is the shape one join step's output takes: the side its hash table
// is built on, and whether it hands on the probe batches with their selection
// narrowed (Shared) or gathers the probe side by matched pairs.
type JoinForm struct{ BuildLeft, Shared bool }

// JoinCase is a statement over BuildJoin's relations and the form each of its
// join steps takes, in plan order.
type JoinCase struct {
	Query string
	Steps []JoinForm
}

var (
	rightShared = JoinForm{Shared: true}
	rightPairs  = JoinForm{}
	leftPairs   = JoinForm{BuildLeft: true}
)

// JoinCases returns the join statements the suites run: both output forms and
// both build sides, unique, repeated and NULL keys, a build column as the next
// join's key, a GROUP BY of each kind of build column, post-join expressions and
// HASH(*) residuals, and ORDER BY. Every ORDER BY fixes the row order up to rows
// that are equal throughout. A statement with no ORDER BY hands the join's own
// vectors — its build side still dictionary-coded — to the result; its rows
// are in the engine's order, which an oracle need not share.
func JoinCases() []JoinCase {
	return []JoinCase{
		// No ORDER BY: the join's vectors are the result's.
		{"SELECT * FROM jf JOIN ju ON jf.k = ju.k", []JoinForm{rightShared}},
		{"SELECT jf.id, jd.tag, jd.w FROM jf JOIN jd ON jf.k = jd.k", []JoinForm{rightPairs}},
		{"SELECT ju.name, ju.x, jf.id FROM ju JOIN jf ON ju.k = jf.k", []JoinForm{leftPairs}},
		{"SELECT jg.label, ju.n, jf.id + 1 FROM jf JOIN ju ON jf.k = ju.k JOIN jg ON ju.g = jg.g", []JoinForm{rightShared, rightShared}},
		// Unique keys, built right: the probe batches handed on.
		{"SELECT * FROM jf JOIN ju ON jf.k = ju.k ORDER BY jf.id", []JoinForm{rightShared}},
		{"SELECT jf.id, ju.name, ju.x, ju.n FROM jf JOIN ju ON jf.k = ju.k WHERE jf.v > 3 ORDER BY jf.id", []JoinForm{rightShared}},
		{"SELECT jf.id, ju.name FROM jf JOIN ju ON jf.k = ju.k ORDER BY jf.id LIMIT 5", []JoinForm{rightShared}},
		// Repeated keys, and a build on the left: the probe side gathered.
		{"SELECT jf.id, jd.tag, jd.w FROM jf JOIN jd ON jf.k = jd.k ORDER BY jf.id, jd.tag, jd.w", []JoinForm{rightPairs}},
		{"SELECT ju.name, jf.id, jf.s FROM ju JOIN jf ON ju.k = jf.k ORDER BY jf.id", []JoinForm{leftPairs}},
		{"SELECT * FROM jd JOIN jf ON jd.k = jf.k ORDER BY jf.id, jd.tag, jd.w, jd.g", []JoinForm{leftPairs}},
		// A build column as the next join's key, after either form.
		{"SELECT jf.id, ju.name, jg.label FROM jf JOIN ju ON jf.k = ju.k JOIN jg ON ju.g = jg.g ORDER BY jf.id",
			[]JoinForm{rightShared, rightShared}},
		{"SELECT jf.id, jd.tag, jd.w, jg.label FROM jf JOIN jd ON jf.k = jd.k JOIN jg ON jd.g = jg.g ORDER BY jf.id, jd.tag, jd.w, jg.label",
			[]JoinForm{rightPairs, rightShared}},
		{"SELECT jf.id, ju.name, jd.tag, jd.w FROM jf JOIN ju ON jf.k = ju.k JOIN jd ON ju.g = jd.g ORDER BY jf.id, jd.tag, jd.w",
			[]JoinForm{rightShared, rightPairs}},
		// GROUP BY a build column of each kind, and of two relations.
		{"SELECT ju.name, COUNT(*), SUM(jf.v), MIN(jf.id) FROM jf JOIN ju ON jf.k = ju.k GROUP BY ju.name ORDER BY ju.name",
			[]JoinForm{rightShared}},
		{"SELECT ju.n, COUNT(ju.x), SUM(ju.x), MAX(ju.name) FROM jf JOIN ju ON jf.k = ju.k GROUP BY ju.n ORDER BY ju.n",
			[]JoinForm{rightShared}},
		{"SELECT ju.x, COUNT(*), AVG(jf.v), MIN(ju.n) FROM jf JOIN ju ON jf.k = ju.k GROUP BY ju.x ORDER BY ju.x",
			[]JoinForm{rightShared}},
		{"SELECT jg.label, COUNT(*), SUM(jf.v) FROM jf JOIN ju ON jf.k = ju.k JOIN jg ON ju.g = jg.g GROUP BY jg.label ORDER BY jg.label",
			[]JoinForm{rightShared, rightShared}},
		{"SELECT jd.tag, COUNT(*), SUM(jd.w), MAX(jf.s) FROM jf JOIN jd ON jf.k = jd.k GROUP BY jd.tag ORDER BY jd.tag",
			[]JoinForm{rightPairs}},
		{"SELECT ju.name, jf.s, COUNT(*), SUM(ju.n) FROM jf JOIN ju ON jf.k = ju.k GROUP BY ju.name, jf.s ORDER BY ju.name, jf.s",
			[]JoinForm{rightShared}},
		// Expressions and residuals over both sides; HASH(*) hashes the joined
		// row, not the row the probe side's scan stored a hash for.
		{"SELECT jf.id, ju.n + jf.k, LENGTH(ju.name) FROM jf JOIN ju ON jf.k = ju.k WHERE ju.x > jf.v ORDER BY jf.id",
			[]JoinForm{rightShared}},
		{"SELECT jf.id, HASH(*) FROM jf JOIN ju ON jf.k = ju.k ORDER BY jf.id", []JoinForm{rightShared}},
		{"SELECT jf.id, ju.name FROM jf JOIN ju ON jf.k = ju.k WHERE HASH(*) >= 2147483648 ORDER BY jf.id", []JoinForm{rightShared}},
		{"SELECT jf.id FROM jf JOIN ju ON jf.k = ju.k WHERE HASH(id) < 2147483648 ORDER BY jf.id", []JoinForm{rightShared}},
		// ORDER BY build columns.
		{"SELECT ju.name, ju.x, jf.id FROM jf JOIN ju ON jf.k = ju.k ORDER BY ju.name DESC, ju.x, jf.id", []JoinForm{rightShared}},
		// The connector's describe statement: a catalog join.
		{"SELECT c.column_name, c.data_type, c.ordinal_position, t.is_segmented, t.segment_expression " +
			"FROM v_catalog.columns c JOIN v_catalog.tables t ON c.table_name = t.table_name " +
			"WHERE t.table_name = 'jf' ORDER BY c.ordinal_position", []JoinForm{rightShared}},
	}
}

// JoinInsert writes a two-step join — one step of each form — into jins;
// JoinInserted reads jins back in the order JoinInsertSelect, the same SELECT
// run alone, returns its rows.
const (
	JoinInsert       = "INSERT INTO jins " + joinInsertRows
	JoinInsertSelect = joinInsertRows + " ORDER BY jf.id, jd.tag, jd.w"
	JoinInserted     = "SELECT * FROM jins ORDER BY id, tag, w"
	joinInsertRows   = "SELECT jf.id, ju.name, jd.tag, jd.w FROM jf JOIN ju ON jf.k = ju.k JOIN jd ON ju.g = jd.g"
)
