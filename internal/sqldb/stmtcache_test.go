package sqldb

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// cacheSchema is a campaign-shaped schema: a parent table, a child with a
// composite primary key, a foreign key to the parent and a self-reference.
const cacheSchema = `
	CREATE TABLE camp (name TEXT PRIMARY KEY, descr TEXT);
	CREATE TABLE exp (name TEXT NOT NULL, run INTEGER NOT NULL, campaign TEXT NOT NULL,
		cycles INTEGER, parent TEXT, parentRun INTEGER,
		PRIMARY KEY (name, run),
		FOREIGN KEY (campaign) REFERENCES camp (name),
		FOREIGN KEY (parent, parentRun) REFERENCES exp (name, run));`

// cachedPair returns a DB whose statements go through a private cache of the
// given bound and a DB that parses every text afresh (its cache's bound
// admits no entry), both with cacheSchema.
func cachedPair(t testing.TB, limit int) (*DB, *DB, *stmtCache) {
	t.Helper()
	c := newStmtCache(limit)
	cached, fresh := New(), New()
	cached.stmts, fresh.stmts = c, newStmtCache(0)
	for _, db := range []*DB{cached, fresh} {
		if err := db.ExecScript(cacheSchema); err != nil {
			t.Fatal(err)
		}
	}
	return cached, fresh, c
}

// runBoth executes query with args on both DBs (Query for a SELECT, Exec
// otherwise) and fails unless results and errors agree.
func runBoth(t testing.TB, cached, fresh *DB, query string, args ...Value) {
	t.Helper()
	run := func(db *DB) (any, string) {
		var (
			res any
			err error
		)
		if isSelect(query) {
			res, err = db.Query(query, args...)
		} else {
			res, err = db.Exec(query, args...)
		}
		if err != nil {
			return nil, err.Error()
		}
		return res, ""
	}
	gotRes, gotErr := run(cached)
	wantRes, wantErr := run(fresh)
	if gotErr != wantErr || !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("%s %v:\ncached: %v %q\nfresh:  %v %q", query, args, gotRes, gotErr, wantRes, wantErr)
	}
}

// TestStatementCacheMatchesFreshParse runs every statement form the campaign
// store issues several times with different arguments. Results must match a
// DB that parses afresh, and each cached AST must still equal a fresh parse
// of its text — execution never writes into a shared tree.
func TestStatementCacheMatchesFreshParse(t *testing.T) {
	cached, fresh, c := cachedPair(t, stmtCacheBytes)
	const (
		insCamp  = "INSERT INTO camp VALUES (?, ?)"
		insExp   = "INSERT INTO exp VALUES (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?)"
		selWhere = "SELECT name, run, cycles FROM exp WHERE campaign = ? AND cycles >= ? ORDER BY cycles DESC, name"
		selJoin  = "SELECT e.name, c.descr FROM exp e JOIN camp c ON e.campaign = c.name WHERE c.name = ? ORDER BY e.name LIMIT ?"
		selGroup = "SELECT campaign, COUNT(*), SUM(cycles) FROM exp WHERE cycles > ? GROUP BY campaign ORDER BY campaign"
		selIn    = "SELECT DISTINCT campaign FROM exp WHERE name IN (?, ?, ?) ORDER BY 1"
		update   = "UPDATE exp SET cycles = cycles + ?, parent = NULL WHERE name = ? AND run = ?"
		del      = "DELETE FROM exp WHERE campaign = ? AND cycles < ?"
	)
	for i := 0; i < 4; i++ {
		camp := fmt.Sprintf("c%d", i)
		runBoth(t, cached, fresh, insCamp, Text(camp), Text(strings.Repeat("d", i)))
		for j := 0; j < 3; j++ {
			a, b := fmt.Sprintf("e%d", 2*j), fmt.Sprintf("e%d", 2*j+1)
			runBoth(t, cached, fresh, insExp,
				Text(a), Int64(int64(i)), Text(camp), Int64(int64(100*j+i)), Null(), Null(),
				Text(b), Float64(float64(i)), Text(camp), Int64(int64(7*j)), Text(a), Int64(int64(i)))
		}
		// A duplicate key and a missing parent fail alike on both.
		runBoth(t, cached, fresh, insExp,
			Text("e0"), Int64(int64(i)), Text(camp), Int64(1), Null(), Null(),
			Text("z"), Int64(0), Text(camp), Int64(1), Null(), Null())
		runBoth(t, cached, fresh, insExp,
			Text("y"), Int64(int64(i)), Text("nope"), Int64(1), Null(), Null(),
			Text("z"), Int64(0), Text(camp), Int64(1), Null(), Null())
		runBoth(t, cached, fresh, selWhere, Text(camp), Int64(int64(3*i)))
		runBoth(t, cached, fresh, selJoin, Text(camp), Int64(int64(i+1)))
		runBoth(t, cached, fresh, selGroup, Int64(int64(10*i)))
		runBoth(t, cached, fresh, selIn, Text("e1"), Text(fmt.Sprintf("e%d", i)), Text("e5"))
		runBoth(t, cached, fresh, update, Int64(int64(i)), Text("e3"), Int64(int64(i)))
		runBoth(t, cached, fresh, del, Text(fmt.Sprintf("c%d", i/2)), Int64(int64(5*i)))
	}
	if cached.Dump() != fresh.Dump() {
		t.Fatal("cached and fresh databases diverged")
	}
	for _, q := range []string{insCamp, insExp, selWhere, selJoin, selGroup, selIn, update, del} {
		el, ok := c.byText[q]
		if !ok {
			t.Fatalf("%q not cached", q)
		}
		want, err := parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := el.Value.(*stmtEntry).st; !reflect.DeepEqual(got, want) {
			t.Errorf("cached AST of %q changed by execution:\n got %#v\nwant %#v", q, got, want)
		}
	}
}

// TestStatementCacheKeepsOnlyTemplates pins what the cache holds: DML texts
// with a placeholder and CREATE TABLE texts, not literal-only DML or syntax
// errors.
func TestStatementCacheKeepsOnlyTemplates(t *testing.T) {
	cached, _, c := cachedPair(t, stmtCacheBytes)
	for _, q := range []string{
		"INSERT INTO camp VALUES ('a', 'b')",
		"SELECT name FROM camp",
		"CREATE TABLE t (a TEXT DEFAULT '?')",
		"SELECT ? FROM",
	} {
		cached.Exec(q) //nolint:errcheck // only the cache's contents matter
	}
	if _, err := cached.Query("SELECT descr FROM camp WHERE name = ?", Text("a")); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"SELECT descr FROM camp WHERE name = ?": true, "CREATE TABLE t (a TEXT DEFAULT '?')": true}
	schema, err := SplitStatements(cacheSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range schema {
		want[q] = true
	}
	got := make(map[string]bool, len(c.byText))
	for k := range c.byText {
		got[k] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cache holds %v, want the parameterised SELECT and the CREATE TABLE texts", got)
	}
}

// TestSchemaParsedOncePerProcess: a store installs its schema on every
// open, and the CREATE TABLE texts carry no placeholder. Only the first open
// in a process parses them; a second open, WAL-backed or not, parses
// nothing.
func TestSchemaParsedOncePerProcess(t *testing.T) {
	c := newStmtCache(stmtCacheBytes)
	schema, err := SplitStatements(cacheSchema)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Stmt, len(schema))
	for i, q := range schema {
		batch[i].SQL = q
	}
	dir := t.TempDir()
	for open := 0; open < 3; open++ {
		var db *DB
		if open == 2 {
			db, err = OpenWithWAL(filepath.Join(dir, "s.db"), WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			db = New()
		}
		db.stmts = c
		before := c.misses.Load()
		if err := db.ExecBatch(batch); err != nil {
			t.Fatal(err)
		}
		parsed := c.misses.Load() - before
		db.Close()
		if want := map[bool]int64{true: int64(len(schema)), false: 0}[open == 0]; parsed != want {
			t.Fatalf("open %d parsed %d schema statements, want %d", open+1, parsed, want)
		}
	}
}

// TestStatementCacheByteBound fills a small cache with many distinct texts of
// very different sizes: the retained estimate never exceeds the bound, it
// always equals the sum of the entries' costs, and the most recently used
// entry survives eviction.
func TestStatementCacheByteBound(t *testing.T) {
	const limit = 16 << 10
	cached, _, c := cachedPair(t, limit)
	hot := "SELECT name FROM exp WHERE run = ?"
	for i := 1; i <= 300; i++ {
		rows := 1 + (i*37)%90
		q := "INSERT INTO camp VALUES (?, ?)" + strings.Repeat(", (?, ?)", rows-1)
		args := make([]Value, 0, 2*rows)
		for r := 0; r < rows; r++ {
			args = append(args, Text(fmt.Sprintf("k%d-%d", i, r)), Null())
		}
		if _, err := cached.Exec(q, args...); err != nil {
			t.Fatal(err)
		}
		if _, err := cached.Query(hot, Int64(1)); err != nil {
			t.Fatal(err)
		}
		sum := 0
		for el := c.lru.Front(); el != nil; el = el.Next() {
			sum += el.Value.(*stmtEntry).cost
		}
		if c.size > limit || sum != c.size || c.lru.Len() != len(c.byText) {
			t.Fatalf("after %d texts: size %d (entries sum to %d, %d listed, %d mapped), bound %d",
				i, c.size, sum, c.lru.Len(), len(c.byText), limit)
		}
		if _, ok := c.byText[hot]; !ok {
			t.Fatalf("after %d texts: the most recently used entry was evicted", i)
		}
	}
	// A text whose cost alone exceeds the bound is parsed but not kept.
	big := "DELETE FROM camp WHERE name IN (?" + strings.Repeat(", ?", limit/8) + ")"
	if _, err := cached.Exec(big, make([]Value, limit/8+1)...); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.byText[big]; ok || c.size > limit {
		t.Fatalf("oversized text cached (size %d, bound %d)", c.size, limit)
	}
}

// TestStatementCacheConcurrent executes one parameterised text from many
// goroutines (run under -race) against one DB and one cache.
func TestStatementCacheConcurrent(t *testing.T) {
	cached, _, c := cachedPair(t, stmtCacheBytes)
	if _, err := cached.Exec("INSERT INTO camp VALUES ('c', NULL)"); err != nil {
		t.Fatal(err)
	}
	const ins = "INSERT INTO exp (name, run, campaign, cycles) VALUES (?, ?, 'c', ?)"
	const sel = "SELECT COUNT(*), SUM(cycles) FROM exp WHERE run = ? AND cycles >= ?"
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := cached.Exec(ins, Text(fmt.Sprintf("e%d", i)), Int64(int64(g)), Int64(int64(i))); err != nil {
					t.Error(err)
					return
				}
				if _, err := cached.Query(sel, Int64(int64(g)), Int64(0)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	row, err := cached.QueryRow("SELECT COUNT(*), SUM(cycles) FROM exp")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Int != 200 || row[1].Int != 4*(49*50/2) {
		t.Fatalf("count, sum = %v, want 200, %d", row, 4*(49*50/2))
	}
	for _, q := range []string{ins, sel} {
		want, _ := parse(q)
		if got := c.byText[q].Value.(*stmtEntry).st; !reflect.DeepEqual(got, want) {
			t.Errorf("cached AST of %q changed", q)
		}
	}
}

// TestKeyEncoding pins the append-built key bytes to the encoding the PK, FK,
// GROUP BY and DISTINCT maps have always used, and the constraint errors
// built from it.
func TestKeyEncoding(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Null(), "n"},
		{Int64(0), "i0"},
		{Int64(-42), "i-42"},
		{Float64(3), "i3"}, // collides with Int64(3) on purpose
		{Float64(-7), "i-7"},
		{Float64(2.5), "r5629499534213120p-51"},
		{Text(""), "t"},
		{Text("abc"), "tabc"},
		{Blob([]byte{0, 0xff}), "b\x00\xff"},
	} {
		if got := keyOf(tc.v); got != tc.want {
			t.Errorf("key(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
	row := []Value{Text("x"), Null(), Int64(3), Float64(3)}
	if got, hasNull := appendColsKey(nil, row, []int{2, 0, 3}); string(got) != "i3\x00tx\x00i3\x00" || hasNull {
		t.Errorf("appendColsKey = %q, %t", got, hasNull)
	}
	if _, hasNull := appendColsKey(nil, row, []int{0, 1}); !hasNull {
		t.Error("appendColsKey missed a NULL component")
	}

	db := New()
	if err := db.ExecScript(cacheSchema + "INSERT INTO camp VALUES ('c', NULL);" +
		"INSERT INTO exp VALUES ('e', 3, 'c', 1, NULL, NULL);"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query string
		args  []Value
		is    error
		msg   string
	}{
		{"INSERT INTO exp VALUES (?, ?, 'c', 1, NULL, NULL)", []Value{Text("e"), Float64(3)},
			ErrConstraint, "insert into exp: constraint violation: duplicate PRIMARY KEY in exp"},
		{"INSERT INTO exp VALUES ('f', 1, ?, 1, NULL, NULL)", []Value{Text("d")},
			ErrForeignKey, "insert into exp: foreign key constraint violation: exp(campaign) has no matching row in camp"},
		{"INSERT INTO exp VALUES ('f', 1, 'c', 1, 'e', ?)", []Value{Int64(4)},
			ErrForeignKey, "insert into exp: foreign key constraint violation: exp(parent,parentRun) has no matching row in exp"},
		{"INSERT INTO exp VALUES ('f', 1, 'c', 1, 'e', ?)", []Value{Float64(3)}, nil, ""},
		{"INSERT INTO exp VALUES (?, NULL, 'c', 1, NULL, NULL)", []Value{Text("g")},
			ErrConstraint, "insert into exp: constraint violation: NOT NULL column run"},
	} {
		_, err := db.Exec(tc.query, tc.args...)
		if tc.is == nil {
			if err != nil {
				t.Errorf("%s %v: %v", tc.query, tc.args, err)
			}
			continue
		}
		if !errors.Is(err, tc.is) || err.Error() != tc.msg {
			t.Errorf("%s %v:\n got %v\nwant %s", tc.query, tc.args, err, tc.msg)
		}
	}
}

// walSeqSchema has the tables, column counts and keys a campaign store
// writes into.
const walSeqSchema = `
	CREATE TABLE IF NOT EXISTS TargetSystemData (testCardName TEXT PRIMARY KEY, description TEXT,
		memSize INTEGER NOT NULL, romSize INTEGER NOT NULL);
	CREATE TABLE IF NOT EXISTS FaultLocation (testCardName TEXT NOT NULL, locationName TEXT NOT NULL,
		chainName TEXT NOT NULL, firstBit INTEGER NOT NULL, width INTEGER NOT NULL, writable INTEGER NOT NULL,
		PRIMARY KEY (testCardName, locationName),
		FOREIGN KEY (testCardName) REFERENCES TargetSystemData (testCardName));
	CREATE TABLE IF NOT EXISTS CampaignData (campaignName TEXT PRIMARY KEY, testCardName TEXT NOT NULL,
		FOREIGN KEY (testCardName) REFERENCES TargetSystemData (testCardName));
	CREATE TABLE IF NOT EXISTS LoggedSystemState (experimentName TEXT PRIMARY KEY, parentExperiment TEXT,
		campaignName TEXT NOT NULL, experimentData TEXT, terminationReason TEXT, mechanism TEXT,
		cycles INTEGER, iterations INTEGER, stateVector BLOB,
		FOREIGN KEY (campaignName) REFERENCES CampaignData (campaignName),
		FOREIGN KEY (parentExperiment) REFERENCES LoggedSystemState (experimentName));
	CREATE TABLE IF NOT EXISTS AnalysisResult (experimentName TEXT PRIMARY KEY, campaignName TEXT NOT NULL,
		outcome TEXT NOT NULL, mechanism TEXT,
		FOREIGN KEY (experimentName) REFERENCES LoggedSystemState (experimentName),
		FOREIGN KEY (campaignName) REFERENCES CampaignData (campaignName));`

// walSeqCampaign issues what one sequential 64-experiment campaign writes
// and reads, with the store's texts: the 546-location inventory in chunks
// of 256, one INSERT per experiment, the classification SELECT, and the
// analysis write (a DELETE … IN and a 64-row INSERT).
func walSeqCampaign(t *testing.T, db *DB, campaign string) {
	t.Helper()
	schema, err := SplitStatements(walSeqSchema)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Stmt, len(schema))
	for i, q := range schema {
		batch[i].SQL = q
	}
	if err := db.ExecBatch(batch); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO TargetSystemData VALUES (?, ?, ?, ?)", Text("thor"), Text("card"), Int64(1), Int64(1))
	for first := 0; first < 546; first += 256 {
		n := min(546-first, 256)
		var args []Value
		for i := first; i < first+n; i++ {
			args = append(args, Text("thor"), Text(fmt.Sprintf("loc%d", i)), Text("internal"), Int64(int64(i)), Int64(1), Int64(1))
		}
		mustExec(t, db, insertTemplate("FaultLocation", 6, n), args...)
	}
	mustExec(t, db, "INSERT INTO CampaignData VALUES (?, ?)", Text(campaign), Text("thor"))
	names := make([]Value, 64)
	for i := range names {
		names[i] = Text(fmt.Sprintf("%s/e%04d", campaign, i))
		mustExec(t, db, insertTemplate("LoggedSystemState", 9, 1), names[i], Null(), Text(campaign), Text("plan"),
			Text("workload-end"), Text(""), Int64(100), Int64(1), Blob(make([]byte, 64)))
	}
	if rs := mustQuery(t, db, "SELECT * FROM LoggedSystemState WHERE campaignName = ? ORDER BY experimentName", Text(campaign)); rs.Len() != 64 {
		t.Fatalf("classification read %d rows, want 64", rs.Len())
	}
	var analysis []Value
	for _, n := range names {
		analysis = append(analysis, n, Text(campaign), Text("latent"), Null())
	}
	if err := db.ExecBatch([]Stmt{
		{SQL: "DELETE FROM AnalysisResult WHERE experimentName IN (?" + strings.Repeat(", ?", 63) + ")", Args: names},
		{SQL: insertTemplate("AnalysisResult", 4, 64), Args: analysis},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestImageLoadKeepsHotTemplatesCached: loading a campaign store's image
// (546 FaultLocation, 64 LoggedSystemState and 64 AnalysisResult rows)
// through the statement cache evicts none of the texts the next campaign
// issues, and a second load parses nothing.
func TestImageLoadKeepsHotTemplatesCached(t *testing.T) {
	c := newStmtCache(stmtCacheBytes)
	onCache := func() *DB {
		db := New()
		db.stmts = c
		return db
	}
	first := onCache()
	walSeqCampaign(t, first, "c1")
	img := imageOf(first, 1)
	for load := 1; load <= 2; load++ {
		before := c.misses.Load()
		loaded := onCache()
		if _, err := loaded.loadImageData(img); err != nil {
			t.Fatal(err)
		}
		if loaded.Dump() != first.Dump() {
			t.Fatal("loaded image differs from the saved store")
		}
		if parsed := c.misses.Load() - before; load == 2 && parsed != 0 {
			t.Fatalf("second image load parsed %d statements, want 0", parsed)
		}
		before = c.misses.Load()
		walSeqCampaign(t, onCache(), fmt.Sprintf("c%d", load+1))
		if parsed := c.misses.Load() - before; parsed != 0 {
			t.Fatalf("campaign after image load %d parsed %d statements, want 0 (cache holds %d bytes in %d entries)",
				load, parsed, c.size, len(c.byText))
		}
	}
	t.Logf("statement cache: %d bytes in %d entries", c.size, len(c.byText))
}
