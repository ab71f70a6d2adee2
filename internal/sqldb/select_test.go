package sqldb

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func newPeopleDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE dept (id INTEGER PRIMARY KEY, name TEXT)")
	mustExec(t, db, `CREATE TABLE person (
		id INTEGER PRIMARY KEY, name TEXT, age INTEGER, dept INTEGER,
		FOREIGN KEY (dept) REFERENCES dept (id))`)
	mustExec(t, db, "INSERT INTO dept VALUES (1, 'hw'), (2, 'sw'), (3, 'empty')")
	mustExec(t, db, `INSERT INTO person VALUES
		(1, 'ada', 36, 2), (2, 'bob', 25, 1), (3, 'cyd', 30, 2),
		(4, 'dan', 25, NULL), (5, 'eva', 41, 1)`)
	return db
}

func TestSelectWhereComparisons(t *testing.T) {
	db := newPeopleDB(t)
	tests := []struct {
		where string
		want  int
	}{
		{"age = 25", 2},
		{"age <> 25", 3},
		{"age < 30", 2},
		{"age <= 30", 3},
		{"age > 30", 2},
		{"age >= 36", 2},
		{"name LIKE '%a%'", 3}, // ada, dan, eva
		{"name LIKE 'a__'", 1},
		{"dept IS NULL", 1},
		{"dept IS NOT NULL", 4},
		{"age IN (25, 41)", 3},
		{"age NOT IN (25, 41)", 2},
		{"age > 20 AND dept = 2", 2},
		{"age > 40 OR dept = 2", 3},
		{"NOT age = 25", 3},
	}
	for _, tt := range tests {
		t.Run(tt.where, func(t *testing.T) {
			rows := mustQuery(t, db, "SELECT id FROM person WHERE "+tt.where)
			if rows.Len() != tt.want {
				t.Fatalf("got %d rows, want %d", rows.Len(), tt.want)
			}
		})
	}
}

func TestSelectNullComparisonExcludesRows(t *testing.T) {
	db := newPeopleDB(t)
	// dept = NULL is never true — dan must not appear.
	rows := mustQuery(t, db, "SELECT id FROM person WHERE dept = NULL")
	if rows.Len() != 0 {
		t.Fatalf("NULL equality returned rows: %+v", rows.Data)
	}
}

func TestSelectExpressions(t *testing.T) {
	db := newPeopleDB(t)
	row, err := db.QueryRow("SELECT age * 2 + 1 FROM person WHERE id = 1")
	if err != nil || row[0].Int != 73 {
		t.Fatalf("row=%v err=%v", row, err)
	}
	row, err = db.QueryRow("SELECT name || '-' || age FROM person WHERE id = 2")
	if err != nil || row[0].Text != "bob-25" {
		t.Fatalf("row=%v err=%v", row, err)
	}
	row, err = db.QueryRow("SELECT -age FROM person WHERE id = 2")
	if err != nil || row[0].Int != -25 {
		t.Fatalf("row=%v err=%v", row, err)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := New()
	row, err := db.QueryRow("SELECT 1 + 1, 'x'")
	if err != nil || row[0].Int != 2 || row[1].Text != "x" {
		t.Fatalf("row=%v err=%v", row, err)
	}
}

func TestSelectOrderBy(t *testing.T) {
	db := newPeopleDB(t)
	rows := mustQuery(t, db, "SELECT name FROM person ORDER BY age DESC, name ASC")
	var names []string
	for _, r := range rows.Data {
		names = append(names, r[0].Text)
	}
	want := "eva,ada,cyd,bob,dan"
	if strings.Join(names, ",") != want {
		t.Fatalf("order = %v, want %s", names, want)
	}
}

func TestSelectOrderByPositionAndAlias(t *testing.T) {
	db := newPeopleDB(t)
	rows := mustQuery(t, db, "SELECT name, age AS years FROM person ORDER BY 2, years DESC")
	if rows.Data[0][1].Int != 25 {
		t.Fatalf("first row = %+v", rows.Data[0])
	}
}

func TestSelectOrderByNullsFirst(t *testing.T) {
	db := newPeopleDB(t)
	rows := mustQuery(t, db, "SELECT id FROM person ORDER BY dept, id")
	if rows.Data[0][0].Int != 4 { // dan has NULL dept
		t.Fatalf("rows = %+v", rows.Data)
	}
}

func TestSelectLimitOffset(t *testing.T) {
	db := newPeopleDB(t)
	rows := mustQuery(t, db, "SELECT id FROM person ORDER BY id LIMIT 2")
	if rows.Len() != 2 || rows.Data[1][0].Int != 2 {
		t.Fatalf("rows = %+v", rows.Data)
	}
	rows = mustQuery(t, db, "SELECT id FROM person ORDER BY id LIMIT 2 OFFSET 3")
	if rows.Len() != 2 || rows.Data[0][0].Int != 4 {
		t.Fatalf("rows = %+v", rows.Data)
	}
	rows = mustQuery(t, db, "SELECT id FROM person ORDER BY id LIMIT 100 OFFSET 100")
	if rows.Len() != 0 {
		t.Fatalf("rows = %+v", rows.Data)
	}
}

func TestSelectDistinct(t *testing.T) {
	db := newPeopleDB(t)
	rows := mustQuery(t, db, "SELECT DISTINCT age FROM person ORDER BY age")
	if rows.Len() != 4 {
		t.Fatalf("distinct ages = %+v", rows.Data)
	}
}

func TestSelectStar(t *testing.T) {
	db := newPeopleDB(t)
	rows := mustQuery(t, db, "SELECT * FROM person WHERE id = 1")
	if len(rows.Columns) != 4 || rows.Columns[3] != "dept" {
		t.Fatalf("cols = %v", rows.Columns)
	}
}

func TestInnerJoin(t *testing.T) {
	db := newPeopleDB(t)
	rows := mustQuery(t, db, `SELECT p.name, d.name FROM person p
		JOIN dept d ON p.dept = d.id ORDER BY p.id`)
	if rows.Len() != 4 { // dan has NULL dept, excluded
		t.Fatalf("rows = %+v", rows.Data)
	}
	if rows.Data[0][0].Text != "ada" || rows.Data[0][1].Text != "sw" {
		t.Fatalf("first = %+v", rows.Data[0])
	}
}

func TestLeftJoin(t *testing.T) {
	db := newPeopleDB(t)
	rows := mustQuery(t, db, `SELECT p.name, d.name FROM person p
		LEFT JOIN dept d ON p.dept = d.id ORDER BY p.id`)
	if rows.Len() != 5 {
		t.Fatalf("rows = %+v", rows.Data)
	}
	if !rows.Data[3][1].IsNull() { // dan
		t.Fatalf("dan's dept = %+v", rows.Data[3])
	}
}

func TestJoinQualifiedStar(t *testing.T) {
	db := newPeopleDB(t)
	rows := mustQuery(t, db, "SELECT d.* FROM person p JOIN dept d ON p.dept = d.id WHERE p.id = 1")
	if len(rows.Columns) != 2 || rows.Data[0][1].Text != "sw" {
		t.Fatalf("rows = %v %+v", rows.Columns, rows.Data)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := newPeopleDB(t)
	if _, err := db.Query("SELECT name FROM person p JOIN dept d ON p.dept = d.id"); err == nil {
		t.Fatal("ambiguous bare column should fail")
	}
}

func TestAggregatesWholeTable(t *testing.T) {
	db := newPeopleDB(t)
	row, err := db.QueryRow("SELECT COUNT(*), COUNT(dept), SUM(age), AVG(age), MIN(age), MAX(age) FROM person")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Int != 5 || row[1].Int != 4 { // COUNT(dept) skips NULL
		t.Fatalf("counts = %+v", row)
	}
	if row[2].Int != 157 {
		t.Fatalf("sum = %+v", row[2])
	}
	if row[3].Real != 157.0/5 {
		t.Fatalf("avg = %+v", row[3])
	}
	if row[4].Int != 25 || row[5].Int != 41 {
		t.Fatalf("min/max = %+v %+v", row[4], row[5])
	}
}

func TestAggregatesEmptyTable(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	row, err := db.QueryRow("SELECT COUNT(*), SUM(a), MIN(a) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Int != 0 || !row[1].IsNull() || !row[2].IsNull() {
		t.Fatalf("row = %+v", row)
	}
}

func TestGroupByHaving(t *testing.T) {
	db := newPeopleDB(t)
	rows := mustQuery(t, db, `SELECT dept, COUNT(*) AS n, AVG(age) FROM person
		WHERE dept IS NOT NULL GROUP BY dept HAVING COUNT(*) >= 2 ORDER BY dept`)
	if rows.Len() != 2 {
		t.Fatalf("rows = %+v", rows.Data)
	}
	if rows.Data[0][0].Int != 1 || rows.Data[0][1].Int != 2 || rows.Data[0][2].Real != 33 {
		t.Fatalf("dept 1 = %+v", rows.Data[0])
	}
}

func TestGroupByWithJoin(t *testing.T) {
	db := newPeopleDB(t)
	rows := mustQuery(t, db, `SELECT d.name, COUNT(*) FROM person p
		JOIN dept d ON p.dept = d.id GROUP BY d.name ORDER BY d.name`)
	if rows.Len() != 2 || rows.Data[0][0].Text != "hw" || rows.Data[0][1].Int != 2 {
		t.Fatalf("rows = %+v", rows.Data)
	}
}

func TestAggregateOrderByAggregate(t *testing.T) {
	db := newPeopleDB(t)
	rows := mustQuery(t, db, `SELECT dept, COUNT(*) FROM person WHERE dept IS NOT NULL
		GROUP BY dept ORDER BY COUNT(*) DESC, dept`)
	if rows.Data[0][1].Int != 2 {
		t.Fatalf("rows = %+v", rows.Data)
	}
}

func TestAggregateArithmetic(t *testing.T) {
	db := newPeopleDB(t)
	row, err := db.QueryRow("SELECT MAX(age) - MIN(age) FROM person")
	if err != nil || row[0].Int != 16 {
		t.Fatalf("row=%v err=%v", row, err)
	}
	// Classification-ratio shape used by the analysis phase.
	row, err = db.QueryRow("SELECT COUNT(dept) * 100 / COUNT(*) FROM person")
	if err != nil || row[0].Int != 80 {
		t.Fatalf("row=%v err=%v", row, err)
	}
}

func TestAggregateOutsideContextFails(t *testing.T) {
	db := newPeopleDB(t)
	if _, err := db.Query("SELECT id FROM person WHERE COUNT(*) > 1"); err == nil {
		t.Fatal("aggregate in WHERE should fail")
	}
}

func TestDivisionByZeroYieldsNull(t *testing.T) {
	db := New()
	row, err := db.QueryRow("SELECT 1 / 0, 1 % 0, 1.0 / 0")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range row {
		if !v.IsNull() {
			t.Fatalf("col %d = %v, want NULL", i, v)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	db := New()
	// NULL AND false = false; NULL OR true = true; NULL AND true = NULL.
	row, err := db.QueryRow("SELECT (NULL AND 0) IS NULL, (NULL OR 1) IS NULL, (NULL AND 1) IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Int != 0 || row[1].Int != 0 || row[2].Int != 1 {
		t.Fatalf("row = %+v", row)
	}
}

func TestLikeMatcher(t *testing.T) {
	tests := []struct {
		pattern, s string
		want       bool
	}{
		{"abc", "abc", true},
		{"abc", "ABC", true}, // case-insensitive
		{"a%", "abc", true},
		{"%c", "abc", true},
		{"%b%", "abc", true},
		{"a_c", "abc", true},
		{"a_c", "abbc", false},
		{"%", "", true},
		{"_", "", false},
		{"a%b%c", "axxbyyc", true},
		{"a%b%c", "axxbyy", false},
		{"", "", true},
		{"", "a", false},
	}
	for _, tt := range tests {
		if got := likeMatch(tt.pattern, tt.s); got != tt.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", tt.pattern, tt.s, got, tt.want)
		}
	}
}

// Property: a pattern with no metacharacters matches exactly itself
// (case-insensitively).
func TestLikeLiteralProperty(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "%_") {
			return true
		}
		return likeMatch(s, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: "%" matches everything, and prefix% matches any extension.
func TestLikePrefixProperty(t *testing.T) {
	f := func(prefix, rest string) bool {
		if strings.ContainsAny(prefix, "%_") {
			return true
		}
		return likeMatch("%", prefix+rest) && likeMatch(prefix+"%", prefix+rest)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: COUNT(*) equals the number of inserted rows for random sizes.
func TestCountMatchesInsertsProperty(t *testing.T) {
	f := func(n uint8) bool {
		db := New()
		if _, err := db.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
			return false
		}
		for i := 0; i < int(n); i++ {
			if _, err := db.Exec("INSERT INTO t VALUES (?)", Int64(int64(i))); err != nil {
				return false
			}
		}
		row, err := db.QueryRow("SELECT COUNT(*) FROM t")
		return err == nil && row[0].Int == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBetween(t *testing.T) {
	db := newPeopleDB(t)
	tests := []struct {
		where string
		want  int
	}{
		{"age BETWEEN 25 AND 30", 3},
		{"age BETWEEN 26 AND 29", 0},
		{"age NOT BETWEEN 25 AND 30", 2},
		{"age BETWEEN 41 AND 41", 1},
		{"name BETWEEN 'a' AND 'c'", 2}, // ada, bob ('cyd' > 'c')
		{"dept BETWEEN 1 AND 2", 4},     // dan's NULL dept excluded
	}
	for _, tt := range tests {
		t.Run(tt.where, func(t *testing.T) {
			rows := mustQuery(t, db, "SELECT id FROM person WHERE "+tt.where)
			if rows.Len() != tt.want {
				t.Fatalf("got %d rows, want %d", rows.Len(), tt.want)
			}
		})
	}
	// NULL bound yields NULL -> excluded.
	rows := mustQuery(t, db, "SELECT id FROM person WHERE age BETWEEN NULL AND 99")
	if rows.Len() != 0 {
		t.Fatalf("NULL bound returned rows: %+v", rows.Data)
	}
	// Parse errors.
	if _, err := db.Query("SELECT id FROM person WHERE age BETWEEN 1"); err == nil {
		t.Fatal("missing AND should fail")
	}
	// Renders back to parseable SQL.
	st, err := parse("SELECT a BETWEEN 1 AND 2 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	rendered := exprString(st.(*selectStmt).Items[0].Expr)
	if _, err := parse("SELECT " + rendered + " FROM t"); err != nil {
		t.Fatalf("re-parse of %q failed: %v", rendered, err)
	}
}

// TestColumnLookupAllocsFlat: evaluating a WHERE over every row resolves
// its column references without allocating, so a SELECT that returns the
// same rows allocates the same at any table size. Mixed-case names are the
// case that used to lower-case (and allocate) once per row.
func TestColumnLookupAllocsFlat(t *testing.T) {
	const q = "SELECT experimentName, stateVector FROM Logged WHERE campaignName = ?"
	allocs := func(rows int) float64 {
		db := New()
		mustExec(t, db, "CREATE TABLE Logged (experimentName TEXT PRIMARY KEY, campaignName TEXT, stateVector BLOB)")
		for i := 0; i < rows; i++ {
			camp := "other"
			if i < 4 {
				camp = "c1"
			}
			mustExec(t, db, "INSERT INTO Logged VALUES (?, ?, ?)", Text(fmt.Sprintf("e%d", i)), Text(camp), Blob([]byte{1}))
		}
		return testing.AllocsPerRun(20, func() {
			if rs, err := db.Query(q, Text("c1")); err != nil || rs.Len() != 4 {
				t.Fatalf("query: %d rows, err %v", rs.Len(), err)
			}
		})
	}
	small, large := allocs(16), allocs(1024)
	if large != small {
		t.Fatalf("SELECT allocates %.0f times over 1024 rows, %.0f over 16: lookups allocate per row", large, small)
	}
}
