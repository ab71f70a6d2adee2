package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"goofi/internal/sqldb"
)

func seedDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.db")
	writeDB(t, path, `CREATE TABLE exp (id INTEGER PRIMARY KEY, outcome TEXT);
INSERT INTO exp VALUES (1, 'detected');
INSERT INTO exp VALUES (2, 'latent');
`)
	return path
}

// writeDB saves the database a SQL script builds as the image at path.
func writeDB(t *testing.T, path, script string) {
	t.Helper()
	db := sqldb.New()
	if err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
}

func TestExecSelect(t *testing.T) {
	path := seedDB(t)
	var out bytes.Buffer
	err := run([]string{"-db", path, "-e", "SELECT outcome FROM exp ORDER BY id"}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "detected") || !strings.Contains(s, "latent") || !strings.Contains(s, "(2 rows)") {
		t.Fatalf("output:\n%s", s)
	}
}

func TestExecInsertAndWriteBack(t *testing.T) {
	path := seedDB(t)
	var out bytes.Buffer
	err := run([]string{"-db", path, "-write", "-e", "INSERT INTO exp VALUES (3, 'escaped')"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ok (1 rows affected)") {
		t.Fatalf("output:\n%s", out.String())
	}
	// The -write flag persisted the change.
	out.Reset()
	err = run([]string{"-db", path, "-e", "SELECT COUNT(*) FROM exp"}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "3") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestDumpFlag(t *testing.T) {
	path := seedDB(t)
	var out bytes.Buffer
	if err := run([]string{"-db", path, "-dump"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "CREATE TABLE exp") {
		t.Fatalf("dump:\n%s", out.String())
	}
}

func TestInteractiveSession(t *testing.T) {
	path := seedDB(t)
	input := strings.NewReader(`
.tables
SELECT id FROM exp WHERE outcome = 'latent'
INSERT INTO exp VALUES (9, 'x')
.dump
.quit
`)
	var out bytes.Buffer
	if err := run([]string{"-db", path}, input, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"exp", "(1 rows)", "ok (1 rows affected)", "INSERT INTO exp VALUES (9, 'x')"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("output missing %q:\n%s", frag, s)
		}
	}
}

func TestInteractiveEOFEndsSession(t *testing.T) {
	path := seedDB(t)
	var out bytes.Buffer
	if err := run([]string{"-db", path}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
}

func TestBadStatementDoesNotKillSession(t *testing.T) {
	path := seedDB(t)
	input := strings.NewReader("SELEC garbage\nSELECT COUNT(*) FROM exp\n.quit\n")
	var out bytes.Buffer
	if err := run([]string{"-db", path}, input, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(1 rows)") {
		t.Fatalf("session died after bad statement:\n%s", out.String())
	}
}

func TestMissingDBFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-e", "SELECT 1"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("missing -db should fail")
	}
}

func TestLongValuesTruncatedInTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.db")
	long := strings.Repeat("x", 100)
	writeDB(t, path, "CREATE TABLE t (v TEXT);\nINSERT INTO t VALUES ('"+long+"');\n")
	var out bytes.Buffer
	if err := run([]string{"-db", path, "-e", "SELECT v FROM t"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "...") {
		t.Fatalf("long value not truncated:\n%s", out.String())
	}
}
