package sqldb

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks    []token
	pos     int
	nParams int
}

func parse(input string) (statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errorf("unexpected trailing input %q", p.cur().text)
	}
	return st, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	if t.kind != kind {
		return false
	}
	return text == "" || t.text == text
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return token{}, p.errorf("expected %s, found %q", want, p.cur().text)
}

func (p *parser) errorf(format string, args ...any) error {
	return &SyntaxError{Pos: p.cur().pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) parseStatement() (statement, error) {
	switch {
	case p.at(tokKeyword, "CREATE"):
		return p.parseCreateTable()
	case p.at(tokKeyword, "DROP"):
		return p.parseDropTable()
	case p.at(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(tokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(tokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(tokKeyword, "DELETE"):
		return p.parseDelete()
	default:
		return nil, p.errorf("unsupported statement starting with %q", p.cur().text)
	}
}

func (p *parser) parseIdent() (string, error) {
	if p.at(tokIdent, "") {
		return p.next().text, nil
	}
	// Permit non-reserved-looking keywords as identifiers where unambiguous
	// (e.g. a column named "key" is not supported, but COUNT etc. are common
	// enough that we keep the strict rule simple).
	return "", p.errorf("expected identifier, found %q", p.cur().text)
}

// --- CREATE TABLE ---

func (p *parser) parseCreateTable() (statement, error) {
	p.next() // CREATE
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	st := &createTableStmt{}
	if p.accept(tokKeyword, "IF") {
		if _, err := p.expect(tokKeyword, "NOT"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tokKeyword, "PRIMARY"):
			p.next()
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			if len(st.PrimaryKey) > 0 {
				return nil, p.errorf("duplicate PRIMARY KEY clause")
			}
			st.PrimaryKey = cols
		case p.at(tokKeyword, "FOREIGN"):
			p.next()
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "REFERENCES"); err != nil {
				return nil, err
			}
			ref, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			refCols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			if len(cols) != len(refCols) {
				return nil, p.errorf("FOREIGN KEY column count mismatch")
			}
			st.ForeignKeys = append(st.ForeignKeys, foreignKey{Columns: cols, RefTable: ref, RefColumns: refCols})
		default:
			col, pk, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if pk {
				if len(st.PrimaryKey) > 0 {
					return nil, p.errorf("multiple PRIMARY KEY definitions")
				}
				st.PrimaryKey = []string{col.Name}
			}
		}
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	if len(st.Columns) == 0 {
		return nil, p.errorf("table %s has no columns", st.Name)
	}
	return st, nil
}

func (p *parser) parseColumnDef() (columnDef, bool, error) {
	var def columnDef
	name, err := p.parseIdent()
	if err != nil {
		return def, false, err
	}
	def.Name = name
	typ, err := p.parseColType()
	if err != nil {
		return def, false, err
	}
	def.Type = typ
	isPK := false
	for {
		switch {
		case p.accept(tokKeyword, "PRIMARY"):
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return def, false, err
			}
			isPK = true
		case p.accept(tokKeyword, "NOT"):
			if _, err := p.expect(tokKeyword, "NULL"); err != nil {
				return def, false, err
			}
			def.NotNull = true
		case p.accept(tokKeyword, "UNIQUE"):
			def.Unique = true
		case p.accept(tokKeyword, "DEFAULT"):
			v, err := p.parseLiteralValue()
			if err != nil {
				return def, false, err
			}
			def.Default = &v
		default:
			return def, isPK, nil
		}
	}
}

func (p *parser) parseColType() (ColType, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return 0, p.errorf("expected column type, found %q", t.text)
	}
	p.next()
	switch t.text {
	case "INTEGER", "INT":
		return TypeInteger, nil
	case "REAL", "FLOAT":
		return TypeReal, nil
	case "TEXT":
		return TypeText, nil
	case "VARCHAR":
		// Accept VARCHAR(n); the length is parsed and ignored.
		if p.accept(tokSymbol, "(") {
			if _, err := p.expect(tokInt, ""); err != nil {
				return 0, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return 0, err
			}
		}
		return TypeText, nil
	case "BLOB":
		return TypeBlob, nil
	default:
		return 0, p.errorf("unknown column type %q", t.text)
	}
}

func (p *parser) parseLiteralValue() (Value, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Value{}, p.errorf("bad integer literal %q", t.text)
		}
		return Int64(n), nil
	case tokFloat:
		p.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Value{}, p.errorf("bad float literal %q", t.text)
		}
		return Float64(f), nil
	case tokString:
		p.next()
		return Text(t.text), nil
	case tokBlobLit:
		p.next()
		b, err := hex.DecodeString(t.text)
		if err != nil {
			return Value{}, p.errorf("bad blob literal")
		}
		return Blob(b), nil
	case tokKeyword:
		if t.text == "NULL" {
			p.next()
			return Null(), nil
		}
	}
	return Value{}, p.errorf("expected literal, found %q", t.text)
}

func (p *parser) parseParenIdentList() ([]string, error) {
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return out, nil
}

// --- DROP TABLE ---

func (p *parser) parseDropTable() (statement, error) {
	p.next() // DROP
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	st := &dropTableStmt{}
	if p.accept(tokKeyword, "IF") {
		if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	return st, nil
}

// --- INSERT ---

func (p *parser) parseInsert() (statement, error) {
	p.next() // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	st := &insertStmt{}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.at(tokSymbol, "(") {
		cols, err := p.parseParenIdentList()
		if err != nil {
			return nil, err
		}
		st.Columns = cols
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		// Rows after the first are sized to it, as VALUES rows share a width.
		var row []exprNode
		if len(st.Rows) > 0 {
			row = make([]exprNode, 0, len(st.Rows[0]))
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	return st, nil
}

// --- SELECT ---

func (p *parser) parseSelect() (statement, error) {
	p.next() // SELECT
	st := &selectStmt{}
	st.Distinct = p.accept(tokKeyword, "DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if p.accept(tokKeyword, "FROM") {
		fc, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		st.From = fc
	}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = e
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			k := orderKey{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				k.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			st.OrderBy = append(st.OrderBy, k)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Limit = e
		if p.accept(tokKeyword, "OFFSET") {
			o, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Offset = o
		}
	}
	return st, nil
}

func (p *parser) parseSelectItem() (selectItem, error) {
	if p.accept(tokSymbol, "*") {
		return selectItem{Star: true}, nil
	}
	// tbl.* needs two tokens of lookahead.
	if p.at(tokIdent, "") && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tokSymbol && p.toks[p.pos+2].text == "*" {
		tbl := p.next().text
		p.next() // .
		p.next() // *
		return selectItem{Star: true, StarTable: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return selectItem{}, err
	}
	item := selectItem{Expr: e}
	if p.accept(tokKeyword, "AS") {
		alias, err := p.parseIdent()
		if err != nil {
			return selectItem{}, err
		}
		item.Alias = alias
	} else if p.at(tokIdent, "") {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseFrom() (*fromClause, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	fc := &fromClause{Table: name}
	if p.at(tokIdent, "") {
		fc.Alias = p.next().text
	}
	for {
		left := false
		switch {
		case p.accept(tokKeyword, "JOIN"):
		case p.accept(tokKeyword, "INNER"):
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
		case p.accept(tokKeyword, "LEFT"):
			left = true
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
		default:
			return fc, nil
		}
		jt, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		jc := joinClause{Left: left, Table: jt}
		if p.at(tokIdent, "") {
			jc.Alias = p.next().text
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		jc.On = on
		fc.Joins = append(fc.Joins, jc)
	}
}

// --- UPDATE / DELETE ---

func (p *parser) parseUpdate() (statement, error) {
	p.next() // UPDATE
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st := &updateStmt{Table: name}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, setClause{Column: col, Value: e})
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *parser) parseDelete() (statement, error) {
	p.next() // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st := &deleteStmt{Table: name}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

// --- Expressions (precedence climbing) ---
//
// Precedence, low to high: OR, AND, NOT, comparison (= <> < <= > >= LIKE IN
// IS), additive (+ - ||), multiplicative (* / %), unary minus, primary.

func (p *parser) parseExpr() (exprNode, error) { return p.parseOr() }

func (p *parser) parseOr() (exprNode, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (exprNode, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (exprNode, error) {
	if p.accept(tokKeyword, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (exprNode, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tokSymbol, "=") || p.at(tokSymbol, "<>") || p.at(tokSymbol, "!=") ||
			p.at(tokSymbol, "<") || p.at(tokSymbol, "<=") || p.at(tokSymbol, ">") || p.at(tokSymbol, ">="):
			op := p.next().text
			if op == "!=" {
				op = "<>"
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &binaryExpr{Op: op, L: l, R: r}
		case p.at(tokKeyword, "LIKE"):
			p.next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &binaryExpr{Op: "LIKE", L: l, R: r}
		case p.at(tokKeyword, "IS"):
			p.next()
			not := p.accept(tokKeyword, "NOT")
			if _, err := p.expect(tokKeyword, "NULL"); err != nil {
				return nil, err
			}
			l = &isNullExpr{X: l, Not: not}
		case p.at(tokKeyword, "NOT") && p.pos+1 < len(p.toks) && p.toks[p.pos+1].text == "IN":
			p.next() // NOT
			p.next() // IN
			list, err := p.parseExprList()
			if err != nil {
				return nil, err
			}
			l = &inExpr{X: l, List: list, Not: true}
		case p.at(tokKeyword, "NOT") && p.pos+1 < len(p.toks) && p.toks[p.pos+1].text == "BETWEEN":
			p.next() // NOT
			p.next() // BETWEEN
			be, err := p.parseBetween(l, true)
			if err != nil {
				return nil, err
			}
			l = be
		case p.at(tokKeyword, "BETWEEN"):
			p.next()
			be, err := p.parseBetween(l, false)
			if err != nil {
				return nil, err
			}
			l = be
		case p.at(tokKeyword, "IN"):
			p.next()
			list, err := p.parseExprList()
			if err != nil {
				return nil, err
			}
			l = &inExpr{X: l, List: list}
		default:
			return l, nil
		}
	}
}

// parseBetween finishes `X [NOT] BETWEEN lo AND hi` after the keyword.
func (p *parser) parseBetween(x exprNode, not bool) (exprNode, error) {
	lo, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "AND"); err != nil {
		return nil, err
	}
	hi, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &betweenExpr{X: x, Lo: lo, Hi: hi, Not: not}, nil
}

func (p *parser) parseExprList() ([]exprNode, error) {
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	var list []exprNode
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return list, nil
}

func (p *parser) parseAdditive() (exprNode, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.at(tokSymbol, "+") || p.at(tokSymbol, "-") || p.at(tokSymbol, "||") {
		op := p.next().text
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (exprNode, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tokSymbol, "*") || p.at(tokSymbol, "/") || p.at(tokSymbol, "%") {
		op := p.next().text
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (exprNode, error) {
	if p.accept(tokSymbol, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{Op: "-", X: x}, nil
	}
	p.accept(tokSymbol, "+") // unary plus is a no-op
	return p.parsePrimary()
}

var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

func (p *parser) parsePrimary() (exprNode, error) {
	t := p.cur()
	switch t.kind {
	case tokInt, tokFloat, tokString, tokBlobLit:
		v, err := p.parseLiteralValue()
		if err != nil {
			return nil, err
		}
		return &literalExpr{Val: v}, nil
	case tokParam:
		p.next()
		e := &paramExpr{Index: p.nParams}
		p.nParams++
		return e, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &literalExpr{Val: Null()}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.next()
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			fe := &funcExpr{Name: t.text}
			if p.accept(tokSymbol, "*") {
				if t.text != "COUNT" {
					return nil, p.errorf("%s(*) is not valid", t.text)
				}
				fe.Star = true
			} else {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fe.Arg = arg
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return fe, nil
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.text)
	case tokIdent:
		p.next()
		if p.accept(tokSymbol, ".") {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			return newColumnExpr(t.text, col), nil
		}
		return newColumnExpr("", t.text), nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.text)
}

// newColumnExpr builds a column reference with its lookup key resolved.
func newColumnExpr(table, column string) *columnExpr {
	key := strings.ToLower(column)
	if table != "" {
		key = strings.ToLower(table) + "." + key
	}
	return &columnExpr{Table: table, Column: column, key: key}
}

// exprString renders an expression back to SQL-ish text, used in error
// messages and the generated-analysis feature.
func exprString(e exprNode) string {
	switch x := e.(type) {
	case *literalExpr:
		if x.Val.Kind == KindText {
			return "'" + strings.ReplaceAll(x.Val.Text, "'", "''") + "'"
		}
		return x.Val.String()
	case *paramExpr:
		return "?"
	case *columnExpr:
		if x.Table != "" {
			return x.Table + "." + x.Column
		}
		return x.Column
	case *unaryExpr:
		return x.Op + " " + exprString(x.X)
	case *binaryExpr:
		return "(" + exprString(x.L) + " " + x.Op + " " + exprString(x.R) + ")"
	case *isNullExpr:
		if x.Not {
			return exprString(x.X) + " IS NOT NULL"
		}
		return exprString(x.X) + " IS NULL"
	case *inExpr:
		parts := make([]string, len(x.List))
		for i, it := range x.List {
			parts[i] = exprString(it)
		}
		op := " IN ("
		if x.Not {
			op = " NOT IN ("
		}
		return exprString(x.X) + op + strings.Join(parts, ", ") + ")"
	case *betweenExpr:
		op := " BETWEEN "
		if x.Not {
			op = " NOT BETWEEN "
		}
		return exprString(x.X) + op + exprString(x.Lo) + " AND " + exprString(x.Hi)
	case *funcExpr:
		if x.Star {
			return x.Name + "(*)"
		}
		return x.Name + "(" + exprString(x.Arg) + ")"
	default:
		return "?expr?"
	}
}
