package sqldb

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzParseSelect feeds arbitrary input through the full lex+parse pipeline.
// The parser's contract is total: any input yields either a statement or a
// positioned *SyntaxError — never a panic, never a nil statement with a nil
// error. Seeds cover every statement kind plus known near-miss syntax.
func FuzzParseSelect(f *testing.F) {
	seeds := []string{
		"SELECT * FROM experiment",
		"SELECT campaignName, COUNT(*) FROM experiment WHERE cycles > 100 " +
			"GROUP BY campaignName HAVING COUNT(*) >= 2 ORDER BY 2 DESC LIMIT 10",
		"SELECT e.experimentName FROM experiment e JOIN campaign c ON e.campaignName = c.campaignName",
		"INSERT INTO t (a, b) VALUES (?, 'it''s'), (2, x'deadbeef')",
		"CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT NOT NULL, c BLOB)",
		"DROP TABLE IF EXISTS t",
		"SELECT a FROM t WHERE b LIKE 'x%' AND c IS NOT NULL AND d IN (1, 2, 3)",
		"SELECT x FROM t WHERE a BETWEEN 1 AND 2 OR NOT (b = -3.5e2)",
		"SELECT",
		"((((",
		"'unterminated",
		"SELECT x FROM t WHERE a BETWEEN 1 AND",
		"SELECT \"quoted ident\" FROM t; trailing",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		st, err := parse(input)
		if err != nil {
			var serr *SyntaxError
			if !errors.As(err, &serr) {
				t.Fatalf("parse(%q) error is %T, want *SyntaxError: %v", input, err, err)
			}
			if serr.Pos < 0 || serr.Pos > len(input) {
				t.Fatalf("parse(%q) error position %d outside input (len %d)", input, serr.Pos, len(input))
			}
			return
		}
		if st == nil {
			t.Fatalf("parse(%q) returned nil statement without error", input)
		}
	})
}

// FuzzLexer pins the token-stream invariants the parser relies on: exactly
// one EOF token, last, at offset len(input); every other token anchored at a
// strictly increasing in-bounds byte offset; failures are positioned
// *SyntaxError values.
func FuzzLexer(f *testing.F) {
	seeds := []string{
		"",
		"SELECT * FROM t WHERE a >= 10 AND b <> 'str''esc' -- comment",
		"x'0a1B' ?, ident_2 \"q id\" 3.14e-2 <= != ||",
		"\x00\xff\twhere\n",
		"'unterminated",
		"x'odd",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		toks, err := lex(input)
		if err != nil {
			var serr *SyntaxError
			if !errors.As(err, &serr) {
				t.Fatalf("lex(%q) error is %T, want *SyntaxError: %v", input, err, err)
			}
			if serr.Pos < 0 || serr.Pos > len(input) {
				t.Fatalf("lex(%q) error position %d outside input (len %d)", input, serr.Pos, len(input))
			}
			return
		}
		if len(toks) == 0 {
			t.Fatalf("lex(%q) returned no tokens, want at least EOF", input)
		}
		last := toks[len(toks)-1]
		if last.kind != tokEOF || last.pos != len(input) {
			t.Fatalf("lex(%q): last token %+v, want EOF at %d", input, last, len(input))
		}
		prev := -1
		for i, tok := range toks {
			if tok.pos < 0 || tok.pos > len(input) {
				t.Fatalf("lex(%q): token %d at offset %d outside input (len %d)", input, i, tok.pos, len(input))
			}
			if i < len(toks)-1 && tok.kind == tokEOF {
				t.Fatalf("lex(%q): EOF token mid-stream at index %d", input, i)
			}
			// Every token consumes at least one byte, so offsets strictly
			// increase (the EOF of an empty input shares offset 0 with
			// nothing — prev starts at -1).
			if tok.pos <= prev {
				t.Fatalf("lex(%q): token %d offset %d not after previous %d", input, i, tok.pos, prev)
			}
			prev = tok.pos
		}
	})
}

// FuzzStatementCache is a differential check of the statement cache: each
// fuzzed statement runs, with two sets of fuzz-derived arguments, on a
// database that parses through a cache and on one that parses afresh.
// Results, errors and final contents must agree, and the cached AST must
// still equal a fresh parse after both executions.
func FuzzStatementCache(f *testing.F) {
	seeds := []string{
		"INSERT INTO exp VALUES (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?)",
		"INSERT INTO camp (name) VALUES (?)",
		"SELECT name, run, cycles FROM exp WHERE campaign = ? AND cycles >= ? ORDER BY cycles DESC, name",
		"SELECT e.name, c.descr FROM exp e LEFT JOIN camp c ON e.campaign = c.name WHERE c.name = ? LIMIT ? OFFSET ?",
		"SELECT campaign, COUNT(*), AVG(cycles) FROM exp WHERE cycles BETWEEN ? AND ? GROUP BY campaign HAVING COUNT(*) > ?",
		"SELECT DISTINCT -cycles, ? || name FROM exp WHERE name LIKE ? OR parent IS NOT NULL ORDER BY 1",
		"UPDATE exp SET cycles = cycles * ?, parent = ? WHERE name = ? AND run = ?",
		"DELETE FROM exp WHERE name IN (?, ?, 'e1') AND NOT cycles < ?",
		"DELETE FROM camp WHERE name = ?",
	}
	for _, s := range seeds {
		f.Add(s, int64(1), int64(-3), "c0")
	}
	f.Fuzz(func(t *testing.T, query string, a, b int64, s string) {
		cached, fresh, c := cachedPair(t, 64<<10)
		const rows = `INSERT INTO camp VALUES ('c0', 'zero'), ('c1', NULL);
			INSERT INTO exp VALUES ('e0', 0, 'c0', 10, NULL, NULL), ('e1', 1, 'c1', -5, 'e0', 0),
				('e2', 0, 'c0', 7, 'e1', 1);`
		for _, db := range []*DB{cached, fresh} {
			if err := db.ExecScript(rows); err != nil {
				t.Fatal(err)
			}
		}
		for _, args := range [][]Value{
			{Int64(a), Text(s), Int64(b), Float64(float64(a) / 4), Null(), Text("c0"), Int64(0), Blob([]byte(s))},
			{Text(s), Int64(b), Null(), Int64(a), Text("e1"), Float64(float64(b) / 2), Int64(1), Text("c1")},
		} {
			runBoth(t, cached, fresh, query, args...)
		}
		if cached.Dump() != fresh.Dump() {
			t.Fatalf("%q: cached and fresh databases diverged", query)
		}
		if el, ok := c.byText[query]; ok {
			want, err := parse(query)
			if err != nil {
				t.Fatal(err)
			}
			if got := el.Value.(*stmtEntry).st; !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: cached AST changed by execution", query)
			}
		}
	})
}
