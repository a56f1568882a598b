package vsql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"vsfabric/internal/expr"
	"vsfabric/internal/types"
)

// Parse parses one SQL statement. Trailing semicolons are allowed.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if !p.atEOF() {
		return nil, fmt.Errorf("vsql: unexpected trailing input at %q", p.peek().text)
	}
	return stmt, nil
}

type parser struct {
	src  string
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

// acceptKw consumes the next token if it is the given keyword.
func (p *parser) acceptKw(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

// accept consumes the next token if it is the given operator.
func (p *parser) accept(op string) bool {
	t := p.peek()
	if t.kind == tokOp && t.text == op {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return fmt.Errorf("vsql: expected %s near %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) expect(op string) error {
	if !p.accept(op) {
		return fmt.Errorf("vsql: expected %q near %q", op, p.peek().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("vsql: expected identifier near %q", t.text)
	}
	p.pos++
	name := t.text
	// Qualified name a.b (v_catalog.nodes, alias.col).
	for p.accept(".") {
		t = p.peek()
		if t.kind != tokIdent {
			return "", fmt.Errorf("vsql: expected identifier after '.' near %q", t.text)
		}
		p.pos++
		name += "." + t.text
	}
	return name, nil
}

func (p *parser) isKw(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.isKw("SELECT"), p.isKw("AT"):
		return p.parseSelect()
	case p.isKw("PROFILE"):
		p.next()
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Profile{Select: sel}, nil
	case p.isKw("EXPLAIN"):
		p.next()
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Explain{Select: sel}, nil
	case p.isKw("CREATE"):
		return p.parseCreate()
	case p.isKw("DROP"):
		return p.parseDrop()
	case p.isKw("ALTER"):
		return p.parseAlter()
	case p.isKw("INSERT"):
		return p.parseInsert()
	case p.isKw("UPDATE"):
		return p.parseUpdate()
	case p.isKw("DELETE"):
		return p.parseDelete()
	case p.isKw("COPY"):
		return p.parseCopy()
	case p.isKw("BEGIN"):
		p.next()
		p.acceptKw("TRANSACTION")
		return &Begin{}, nil
	case p.isKw("COMMIT"):
		p.next()
		return &Commit{}, nil
	case p.isKw("ROLLBACK"), p.isKw("ABORT"):
		p.next()
		return &Rollback{}, nil
	case p.isKw("SET"):
		return p.parseSet()
	default:
		return nil, fmt.Errorf("vsql: unrecognized statement near %q", p.peek().text)
	}
}

// parseSelect parses [AT EPOCH n|LATEST] SELECT items [FROM t [JOIN u ON
// a=b]...] [WHERE p] [GROUP BY cols] [LIMIT n].
func (p *parser) parseSelect() (*Select, error) {
	sel := &Select{Limit: -1}
	if p.acceptKw("AT") {
		if err := p.expectKw("EPOCH"); err != nil {
			return nil, err
		}
		er := &EpochRef{}
		if p.acceptKw("LATEST") {
			er.Latest = true
		} else {
			t := p.peek()
			if t.kind != tokNumber {
				return nil, fmt.Errorf("vsql: expected epoch number near %q", t.text)
			}
			p.pos++
			n, err := strconv.ParseUint(t.text, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("vsql: bad epoch %q", t.text)
			}
			er.N = n
		}
		sel.AtEpoch = er
	}
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, *item)
		if !p.accept(",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = tr
		for p.acceptKw("JOIN") || p.acceptKw("INNER") {
			p.acceptKw("JOIN")
			right, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			lc, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expect("="); err != nil {
				return nil, err
			}
			rc, err := p.ident()
			if err != nil {
				return nil, err
			}
			sel.Joins = append(sel.Joins, &JoinClause{Right: *right, LeftCol: lc, RightCol: rc})
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, c)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: c}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("vsql: expected LIMIT count near %q", t.text)
		}
		p.pos++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("vsql: bad LIMIT %q", t.text)
		}
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) parseTableRef() (*TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	tr := &TableRef{Name: name}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		tr.Alias = a
	} else if t := p.peek(); t.kind == tokIdent && !isReserved(t.text) {
		tr.Alias = t.text
		p.pos++
	}
	return tr, nil
}

var reserved = map[string]bool{
	"WHERE": true, "GROUP": true, "LIMIT": true, "JOIN": true, "INNER": true,
	"ON": true, "AS": true, "FROM": true, "AND": true, "OR": true, "NOT": true,
	"ORDER": true, "SET": true, "VALUES": true, "USING": true, "AT": true,
}

func isReserved(s string) bool { return reserved[strings.ToUpper(s)] }

func (p *parser) parseSelectItem() (*SelectItem, error) {
	if p.accept("*") {
		return &SelectItem{Star: true}, nil
	}
	// Aggregate?
	if t := p.peek(); t.kind == tokIdent {
		up := strings.ToUpper(t.text)
		switch AggFn(up) {
		case AggCount, AggSum, AggAvg, AggMin, AggMax:
			if p.toks[p.pos+1].kind == tokOp && p.toks[p.pos+1].text == "(" {
				p.pos += 2 // fn (
				item := &SelectItem{Agg: AggFn(up)}
				if p.accept("*") {
					if item.Agg != AggCount {
						return nil, fmt.Errorf("vsql: %s(*) is not valid", up)
					}
				} else {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					item.Arg = arg
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				p.parseAlias(item)
				return item, nil
			}
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	item := &SelectItem{Expr: e}
	p.parseAlias(item)
	return item, nil
}

func (p *parser) parseAlias(item *SelectItem) {
	if p.acceptKw("AS") {
		if t := p.peek(); t.kind == tokIdent {
			item.Alias = t.text
			p.pos++
		}
	} else if t := p.peek(); t.kind == tokIdent && !isReserved(t.text) {
		item.Alias = t.text
		p.pos++
	}
}

// Expression grammar: or_expr := and_expr (OR and_expr)* ; and_expr :=
// not_expr (AND not_expr)* ; not_expr := [NOT] cmp ; cmp := add ((=|<>|...)
// add | IS [NOT] NULL)? ; add := mul ((+|-) mul)* ; mul := primary ((*|/)
// primary)*.
func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &expr.Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &expr.And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.acceptKw("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: e}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (expr.Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.acceptKw("IS") {
		neg := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &expr.IsNull{E: l, Negate: neg}, nil
	}
	ops := map[string]expr.CmpOp{"=": expr.EQ, "<>": expr.NE, "!=": expr.NE, "<": expr.LT, "<=": expr.LE, ">": expr.GT, ">=": expr.GE}
	if t := p.peek(); t.kind == tokOp {
		if op, ok := ops[t.text]; ok {
			p.pos++
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &expr.Cmp{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (expr.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.ArithOp
		switch {
		case p.accept("+"):
			op = expr.Add
		case p.accept("-"):
			op = expr.Sub
		default:
			return l, nil
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &expr.Arith{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMul() (expr.Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.ArithOp
		switch {
		case p.accept("*"):
			op = expr.Mul
		case p.accept("/"):
			op = expr.Div
		default:
			return l, nil
		}
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = &expr.Arith{Op: op, L: l, R: r}
	}
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.pos++
		return numberLit(t.text)
	case t.kind == tokString:
		p.pos++
		return &expr.Lit{V: types.StringValue(t.text)}, nil
	case t.kind == tokOp && t.text == "-" && p.toks[p.pos+1].kind == tokNumber:
		// A negative number is one literal, not 0 - x: it keeps its type
		// (-9223372036854775808 is an INTEGER), its sign (-0.0) and its shape
		// (col < -0.5 lowers to a kernel).
		p.pos += 2
		return numberLit("-" + p.toks[p.pos-1].text)
	case t.kind == tokOp && t.text == "-":
		p.pos++
		e, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &expr.Arith{Op: expr.Sub, L: &expr.Lit{V: types.IntValue(0)}, R: e}, nil
	case t.kind == tokOp && t.text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		if isReserved(t.text) {
			return nil, fmt.Errorf("vsql: unexpected keyword %q in expression", t.text)
		}
		switch strings.ToUpper(t.text) {
		case "NULL":
			p.pos++
			return &expr.Lit{V: types.NullValue(types.Varchar)}, nil
		case "TRUE":
			p.pos++
			return &expr.Lit{V: types.BoolValue(true)}, nil
		case "FALSE":
			p.pos++
			return &expr.Lit{V: types.BoolValue(false)}, nil
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if !p.accept("(") {
			return &expr.Col{Name: name}, nil
		}
		return p.parseCall(name)
	default:
		return nil, fmt.Errorf("vsql: unexpected token %q in expression", t.text)
	}
}

// numberLit reads a number token, sign included: an INTEGER when it has no
// fraction or exponent and fits, a FLOAT otherwise.
func numberLit(text string) (expr.Expr, error) {
	if !strings.ContainsAny(text, ".eE") {
		if n, err := strconv.ParseInt(text, 10, 64); err == nil {
			return &expr.Lit{V: types.IntValue(n)}, nil
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, fmt.Errorf("vsql: bad number %q", text)
	}
	return &expr.Lit{V: types.FloatValue(f)}, nil
}

// asciiCase maps the ASCII letters of an identifier to one case (up selects
// which) and leaves every other byte as it is: the lexer reads an identifier
// byte by byte, so a Unicode case mapping could turn it into one it rejects.
func asciiCase(s string, up bool) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case up && 'a' <= c && c <= 'z':
			b[i] = c - 'a' + 'A'
		case !up && 'A' <= c && c <= 'Z':
			b[i] = c - 'A' + 'a'
		}
	}
	return string(b)
}

// parseCall parses the argument list of name(, having consumed "name(".
// It recognizes the engine builtins HASH and MOD and otherwise produces a
// generic FuncCall with optional USING PARAMETERS.
func (p *parser) parseCall(name string) (expr.Expr, error) {
	var args []expr.Expr
	params := map[string]string{}
	star := false
	if !p.accept(")") {
		if p.accept("*") {
			star = true
		} else {
			for {
				if p.acceptKw("USING") {
					if err := p.parseUsingParams(params); err != nil {
						return nil, err
					}
					break
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(",") {
					if p.acceptKw("USING") {
						if err := p.parseUsingParams(params); err != nil {
							return nil, err
						}
					}
					break
				}
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	name = asciiCase(name, true)
	switch name {
	case "HASH":
		if star {
			return &expr.HashFn{}, nil
		}
		return &expr.HashFn{Args: args}, nil
	case "MOD":
		if len(args) != 2 {
			return nil, fmt.Errorf("vsql: MOD takes 2 arguments, got %d", len(args))
		}
		return &expr.ModFn{X: args[0], Y: args[1]}, nil
	default:
		if star {
			return nil, fmt.Errorf("vsql: %s(*) is not valid here", name)
		}
		fc := &expr.FuncCall{Name: name, Args: args}
		if len(params) > 0 {
			fc.Params = params
		}
		return fc, nil
	}
}

// parseUsingParams parses PARAMETERS k='v' [, k2='v2' ...] after USING.
func (p *parser) parseUsingParams(params map[string]string) error {
	if err := p.expectKw("PARAMETERS"); err != nil {
		return err
	}
	for {
		k, err := p.ident()
		if err != nil {
			return err
		}
		if err := p.expect("="); err != nil {
			return err
		}
		t := p.next()
		switch t.kind {
		case tokString, tokNumber, tokIdent:
			params[asciiCase(k, false)] = t.text
		default:
			return fmt.Errorf("vsql: bad parameter value near %q", t.text)
		}
		if !p.accept(",") {
			return nil
		}
	}
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	temp := p.acceptKw("TEMP") || p.acceptKw("TEMPORARY")
	switch {
	case !temp && p.acceptKw("RESOURCE"):
		if err := p.expectKw("POOL"); err != nil {
			return nil, err
		}
		cp := &CreateResourcePool{}
		if p.acceptKw("IF") {
			if err := p.expectKw("NOT"); err != nil {
				return nil, err
			}
			if err := p.expectKw("EXISTS"); err != nil {
				return nil, err
			}
			cp.IfNotExists = true
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		cp.Name = name
		if err := p.parsePoolParams(&cp.Params); err != nil {
			return nil, err
		}
		return cp, nil
	case p.acceptKw("TABLE"):
		ct := &CreateTable{Temp: temp}
		if p.acceptKw("IF") {
			if err := p.expectKw("NOT"); err != nil {
				return nil, err
			}
			if err := p.expectKw("EXISTS"); err != nil {
				return nil, err
			}
			ct.IfNotExists = true
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		ct.Name = name
		if p.acceptKw("LIKE") {
			like, err := p.ident()
			if err != nil {
				return nil, err
			}
			ct.Like = like
		} else {
			if err := p.expect("("); err != nil {
				return nil, err
			}
			for {
				cn, err := p.ident()
				if err != nil {
					return nil, err
				}
				tn, err := p.typeName()
				if err != nil {
					return nil, err
				}
				ct.Cols = append(ct.Cols, ColumnDef{Name: cn, Type: tn})
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		}
		// Segmentation clauses.
		for {
			switch {
			case p.acceptKw("SEGMENTED"):
				if err := p.expectKw("BY"); err != nil {
					return nil, err
				}
				if err := p.expectKw("HASH"); err != nil {
					return nil, err
				}
				if err := p.expect("("); err != nil {
					return nil, err
				}
				for {
					c, err := p.ident()
					if err != nil {
						return nil, err
					}
					ct.SegCols = append(ct.SegCols, c)
					if !p.accept(",") {
						break
					}
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				p.acceptKw("ALL")
				p.acceptKw("NODES")
			case p.acceptKw("UNSEGMENTED"):
				ct.Unsegmented = true
				p.acceptKw("ALL")
				p.acceptKw("NODES")
			case p.acceptKw("KSAFE"):
				t := p.peek()
				if t.kind != tokNumber {
					return nil, fmt.Errorf("vsql: expected KSAFE value near %q", t.text)
				}
				p.pos++
				k, err := strconv.Atoi(t.text)
				if err != nil {
					return nil, fmt.Errorf("vsql: bad KSAFE %q", t.text)
				}
				ct.KSafety = k
			default:
				return ct, nil
			}
		}
	case p.acceptKw("VIEW"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		start := p.peek().pos
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		end := len(p.src)
		if !p.atEOF() {
			end = p.peek().pos
		}
		return &CreateView{Name: name, SelectSQL: strings.TrimRight(strings.TrimSpace(p.src[start:end]), ";"), Stmt: sel}, nil
	default:
		return nil, fmt.Errorf("vsql: expected TABLE or VIEW after CREATE near %q", p.peek().text)
	}
}

func (p *parser) typeName() (types.Type, error) {
	n, err := p.ident()
	if err != nil {
		return types.Unknown, err
	}
	if strings.EqualFold(n, "DOUBLE") {
		p.acceptKw("PRECISION")
	}
	// Optional length, e.g. VARCHAR(80).
	if p.accept("(") {
		if t := p.peek(); t.kind == tokNumber {
			p.pos++
		}
		if err := p.expect(")"); err != nil {
			return types.Unknown, err
		}
	}
	return types.ParseType(n)
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	isView := false
	switch {
	case p.acceptKw("RESOURCE"):
		if err := p.expectKw("POOL"); err != nil {
			return nil, err
		}
		dp := &DropResourcePool{}
		if p.acceptKw("IF") {
			if err := p.expectKw("EXISTS"); err != nil {
				return nil, err
			}
			dp.IfExists = true
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		dp.Name = name
		return dp, nil
	case p.acceptKw("TABLE"):
	case p.acceptKw("VIEW"):
		isView = true
	default:
		return nil, fmt.Errorf("vsql: expected TABLE or VIEW after DROP near %q", p.peek().text)
	}
	ifExists := false
	if p.acceptKw("IF") {
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if isView {
		return &DropView{Name: name, IfExists: ifExists}, nil
	}
	return &DropTable{Name: name, IfExists: ifExists}, nil
}

func (p *parser) parseAlter() (Statement, error) {
	p.next() // ALTER
	if p.acceptKw("CLUSTER") {
		return p.parseAlterCluster()
	}
	if p.acceptKw("RESOURCE") {
		if err := p.expectKw("POOL"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		ap := &AlterResourcePool{Name: name}
		if err := p.parsePoolParams(&ap.Params); err != nil {
			return nil, err
		}
		if ap.Params == (PoolParams{}) {
			return nil, fmt.Errorf("vsql: ALTER RESOURCE POOL %s changes nothing", name)
		}
		return ap, nil
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("RENAME"); err != nil {
		return nil, err
	}
	if err := p.expectKw("TO"); err != nil {
		return nil, err
	}
	newName, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &AlterRename{Name: name, NewName: newName}, nil
}

// parseAlterCluster parses the membership statements:
//
//	ALTER CLUSTER ADD NODE
//	ALTER CLUSTER REMOVE NODE <id>
func (p *parser) parseAlterCluster() (Statement, error) {
	switch {
	case p.acceptKw("ADD"):
		if err := p.expectKw("NODE"); err != nil {
			return nil, err
		}
		return &AlterCluster{Action: AlterClusterAdd}, nil
	case p.acceptKw("REMOVE"):
		if err := p.expectKw("NODE"); err != nil {
			return nil, err
		}
		t := p.peek()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("vsql: expected node id near %q", t.text)
		}
		p.pos++
		id, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, fmt.Errorf("vsql: bad node id %q", t.text)
		}
		return &AlterCluster{Action: AlterClusterRemove, Node: id}, nil
	default:
		return nil, fmt.Errorf("vsql: expected ADD or REMOVE after ALTER CLUSTER, near %q", p.peek().text)
	}
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name}
	if p.accept("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, c)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if p.isKw("SELECT") || p.isKw("AT") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Select = sel
		return ins, nil
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var row []expr.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	up := &Update{Table: name}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, SetClause{Col: c, Expr: e})
		if !p.accept(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = e
	}
	return up, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: name}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

// parseCopy parses COPY t FROM STDIN|'path' [FORMAT CSV|AVRO] [DIRECT]
// [REJECTMAX n].
func (p *parser) parseCopy() (Statement, error) {
	p.next() // COPY
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	cp := &Copy{Table: name, Format: CopyCSV}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	p.acceptKw("LOCAL")
	if p.acceptKw("STDIN") {
		cp.FromStdin = true
	} else if t := p.peek(); t.kind == tokString {
		p.pos++
		cp.FromPath = t.text
	} else {
		return nil, fmt.Errorf("vsql: expected STDIN or file path after COPY ... FROM near %q", t.text)
	}
	for {
		switch {
		case p.acceptKw("FORMAT"):
			switch {
			case p.acceptKw("CSV"):
				cp.Format = CopyCSV
			case p.acceptKw("AVRO"):
				cp.Format = CopyAvro
			default:
				return nil, fmt.Errorf("vsql: unknown COPY format near %q", p.peek().text)
			}
		case p.acceptKw("DIRECT"): // every load is direct
		case p.acceptKw("REJECTMAX"):
			t := p.peek()
			if t.kind != tokNumber {
				return nil, fmt.Errorf("vsql: expected REJECTMAX count near %q", t.text)
			}
			p.pos++
			n, err := strconv.ParseInt(t.text, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("vsql: bad REJECTMAX %q", t.text)
			}
			cp.RejectMax = n
		default:
			return cp, nil
		}
	}
}

// parsePoolParams parses the optional CREATE/ALTER RESOURCE POOL clauses in
// any order: MEMORYSIZE '100M'|bytes|NONE, MAXCONCURRENCY n|NONE,
// MAXQUEUEDEPTH n|NONE, QUEUETIMEOUT secs|'30s'|NONE.
func (p *parser) parsePoolParams(out *PoolParams) error {
	for {
		switch {
		case p.acceptKw("MEMORYSIZE"):
			v, err := p.poolMemSize()
			if err != nil {
				return err
			}
			out.MemoryBytes = &v
		case p.acceptKw("MAXCONCURRENCY"):
			v, err := p.poolCount("MAXCONCURRENCY", 0)
			if err != nil {
				return err
			}
			out.MaxConcurrency = &v
		case p.acceptKw("MAXQUEUEDEPTH"):
			v, err := p.poolCount("MAXQUEUEDEPTH", -1)
			if err != nil {
				return err
			}
			out.MaxQueueDepth = &v
		case p.acceptKw("QUEUETIMEOUT"):
			v, err := p.poolTimeout()
			if err != nil {
				return err
			}
			out.QueueTimeout = &v
		default:
			return nil
		}
	}
}

// poolMemSize parses NONE (0 = unlimited), a byte count, or a quoted size
// like '100M' / '4G' / '512K' (optionally with a trailing B).
func (p *parser) poolMemSize() (int64, error) {
	t := p.peek()
	switch {
	case p.acceptKw("NONE"):
		return 0, nil
	case t.kind == tokNumber:
		p.pos++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("vsql: bad MEMORYSIZE %q", t.text)
		}
		return n, nil
	case t.kind == tokString:
		p.pos++
		n, err := parseMemSize(t.text)
		if err != nil {
			return 0, err
		}
		return n, nil
	default:
		return 0, fmt.Errorf("vsql: expected MEMORYSIZE value near %q", t.text)
	}
}

// parseMemSize converts "100M"-style size literals to bytes.
func parseMemSize(s string) (int64, error) {
	orig := s
	s = strings.TrimSpace(strings.ToUpper(s))
	s = strings.TrimSuffix(s, "B")
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, s[:len(s)-1]
	case strings.HasSuffix(s, "T"):
		mult, s = 1<<40, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("vsql: bad memory size %q", orig)
	}
	return n * mult, nil
}

// poolCount parses NONE (mapped to the given unlimited value) or a
// non-negative integer.
func (p *parser) poolCount(clause string, none int) (int, error) {
	if p.acceptKw("NONE") {
		return none, nil
	}
	t := p.peek()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("vsql: expected %s count near %q", clause, t.text)
	}
	p.pos++
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("vsql: bad %s %q", clause, t.text)
	}
	return n, nil
}

// poolTimeout parses NONE (0 = wait forever), a number of seconds, or a
// quoted Go duration like '750ms'.
func (p *parser) poolTimeout() (time.Duration, error) {
	if p.acceptKw("NONE") {
		return 0, nil
	}
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.pos++
		secs, err := strconv.ParseFloat(t.text, 64)
		if err != nil || secs < 0 {
			return 0, fmt.Errorf("vsql: bad QUEUETIMEOUT %q", t.text)
		}
		return time.Duration(secs * float64(time.Second)), nil
	case tokString:
		p.pos++
		d, err := time.ParseDuration(t.text)
		if err != nil || d < 0 {
			return 0, fmt.Errorf("vsql: bad QUEUETIMEOUT %q", t.text)
		}
		return d, nil
	default:
		return 0, fmt.Errorf("vsql: expected QUEUETIMEOUT value near %q", t.text)
	}
}

// parseSet parses SET [SESSION] <name> = <ident|string|number>.
func (p *parser) parseSet() (Statement, error) {
	p.next() // SET
	p.acceptKw("SESSION")
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	t := p.peek()
	switch t.kind {
	case tokIdent, tokString, tokNumber:
		p.pos++
		return &Set{Name: name, Value: t.text}, nil
	default:
		return nil, fmt.Errorf("vsql: expected value for SET %s near %q", name, t.text)
	}
}
