package sqldb

import (
	"fmt"
	"sort"
	"strings"
)

// --- INSERT ---

func (db *DB) execInsert(s *insertStmt, args []Value) (Result, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return Result{}, fmt.Errorf("insert: %w: %s", ErrNoSuchTable, s.Table)
	}
	// Map statement columns to table positions.
	targets := make([]int, 0, len(t.def.Columns))
	if len(s.Columns) == 0 {
		for i := range t.def.Columns {
			targets = append(targets, i)
		}
	} else {
		for _, c := range s.Columns {
			idx, ok := t.colIdx[strings.ToLower(c)]
			if !ok {
				return Result{}, fmt.Errorf("insert into %s: no such column %s", s.Table, c)
			}
			targets = append(targets, idx)
		}
	}
	// A multi-row INSERT is all-or-nothing: a failing row undoes the rows
	// the statement already appended, since a failed statement writes no WAL
	// record and a later checkpoint must not make those rows durable.
	start := len(t.rows)
	if err := db.insertValues(t, s, targets, args); err != nil {
		t.truncateRows(start)
		return Result{}, fmt.Errorf("insert into %s: %w", s.Table, err)
	}
	return Result{RowsAffected: int64(len(t.rows) - start)}, nil
}

// insertValues evaluates and appends the VALUES rows of s in order, stopping
// at the first failure. The caller holds the write lock.
func (db *DB) insertValues(t *table, s *insertStmt, targets []int, args []Value) error {
	env := &rowEnv{args: args}
	w := db.newRowWriter(t)
	filled := make([]bool, len(t.def.Columns))
	for _, exprs := range s.Rows {
		if len(exprs) != len(targets) {
			return fmt.Errorf("%d values for %d columns", len(exprs), len(targets))
		}
		row := make([]Value, len(t.def.Columns))
		clear(filled)
		for i, e := range exprs {
			v, err := evalExpr(e, env)
			if err != nil {
				return err
			}
			row[targets[i]] = v
			filled[targets[i]] = true
		}
		for i, c := range t.def.Columns {
			if !filled[i] && c.Default != nil {
				row[i] = *c.Default
			}
		}
		if err := w.insert(row); err != nil {
			return err
		}
	}
	return nil
}

// truncateRows drops every row from index n on, together with its primary
// key entry.
func (t *table) truncateRows(n int) {
	if t.pkIndex != nil {
		for _, row := range t.rows[n:] {
			key, _ := t.pkKey(row)
			delete(t.pkIndex, key)
		}
	}
	t.rows = t.rows[:n]
}

// rowWriter validates and stores the rows of one statement. It holds what
// the statement resolves once for all of its rows — the parent table of
// each FOREIGN KEY — and a key buffer the rows share.
type rowWriter struct {
	t       *table
	parents []*table // parents[i] is t.fks[i]'s table; nil when missing
	key     []byte
}

// newRowWriter resolves t's FOREIGN KEY parents. The caller holds the write
// lock for as long as it uses the writer.
func (db *DB) newRowWriter(t *table) *rowWriter {
	w := &rowWriter{t: t, parents: make([]*table, len(t.fks))}
	for i := range t.fks {
		w.parents[i] = db.tables[t.fks[i].parent]
	}
	return w
}

// insert validates constraints and appends the row.
func (w *rowWriter) insert(row []Value) error {
	t := w.t
	// Type coercion and NOT NULL.
	for i, c := range t.def.Columns {
		v, err := coerce(row[i], c.Type)
		if err != nil {
			return fmt.Errorf("column %s: %w", c.Name, err)
		}
		row[i] = v
		if c.NotNull && v.IsNull() {
			return fmt.Errorf("%w: NOT NULL column %s", ErrConstraint, c.Name)
		}
	}
	// PRIMARY KEY uniqueness (and implicit NOT NULL).
	if t.pkIndex != nil {
		var hasNull bool
		w.key, hasNull = appendColsKey(w.key[:0], row, t.pkCols)
		if hasNull {
			return fmt.Errorf("%w: NULL in PRIMARY KEY of %s", ErrConstraint, t.def.Name)
		}
		if _, dup := t.pkIndex[string(w.key)]; dup {
			return fmt.Errorf("%w: duplicate PRIMARY KEY in %s", ErrConstraint, t.def.Name)
		}
	}
	// UNIQUE columns (linear scan; tables here are modest).
	for i, c := range t.def.Columns {
		if !c.Unique || row[i].IsNull() {
			continue
		}
		for _, existing := range t.rows {
			if existing[i].Equal(row[i]) {
				return fmt.Errorf("%w: UNIQUE column %s", ErrConstraint, c.Name)
			}
		}
	}
	// The FK checks reuse the key buffer, so take the PK's string first.
	var pk string
	if t.pkIndex != nil {
		pk = string(w.key)
	}
	if err := w.checkFKs(row); err != nil {
		return err
	}
	if t.pkIndex != nil {
		t.pkIndex[pk] = len(t.rows)
	}
	t.rows = append(t.rows, row)
	return nil
}

// appendColsKey appends the key of row's values at cols, each
// NUL-terminated, to dst. hasNull reports whether any of them is NULL.
func appendColsKey(dst []byte, row []Value, cols []int) (key []byte, hasNull bool) {
	for _, c := range cols {
		v := row[c]
		hasNull = hasNull || v.IsNull()
		dst = append(appendKey(dst, v), 0)
	}
	return dst, hasNull
}

// pkKey builds the primary-key map key of a row. hasNull reports whether any
// PK component is NULL.
func (t *table) pkKey(row []Value) (string, bool) {
	key, hasNull := appendColsKey(nil, row, t.pkCols)
	return string(key), hasNull
}

// checkFKs verifies that every non-NULL FOREIGN KEY tuple of row exists in
// its parent table.
func (w *rowWriter) checkFKs(row []Value) error {
	t := w.t
	for i := range t.fks {
		fk, parent := &t.fks[i], w.parents[i]
		if parent == nil {
			return fmt.Errorf("%w: referenced table %s missing", ErrForeignKey, fk.def.RefTable)
		}
		var hasNull bool
		w.key, hasNull = appendColsKey(w.key[:0], row, fk.cols)
		if hasNull {
			continue // SQL: NULL FK components satisfy the constraint
		}
		if fk.toPK {
			if _, found := parent.pkIndex[string(w.key)]; found {
				continue
			}
		} else if parent.hasTuple(fk.refCols, row, fk.cols) {
			continue
		}
		return fmt.Errorf("%w: %s(%s) has no matching row in %s",
			ErrForeignKey, t.def.Name, strings.Join(fk.def.Columns, ","), fk.def.RefTable)
	}
	return nil
}

// hasTuple reports whether some row of t holds, at positions cols, the
// values src holds at srcCols (a linear scan).
func (t *table) hasTuple(cols []int, src []Value, srcCols []int) bool {
	for _, r := range t.rows {
		if tupleEqual(r, cols, src, srcCols) {
			return true
		}
	}
	return false
}

// tupleEqual reports whether a's values at aCols equal b's at bCols.
func tupleEqual(a []Value, aCols []int, b []Value, bCols []int) bool {
	for i, c := range aCols {
		if !a[c].Equal(b[bCols[i]]) {
			return false
		}
	}
	return true
}

func sameColumns(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !strings.EqualFold(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkNoChildReferences enforces RESTRICT semantics on delete/update of a
// parent row.
func (db *DB) checkNoChildReferences(parent *table, row []Value) error {
	name := strings.ToLower(parent.def.Name)
	for _, childKey := range db.order {
		child := db.tables[childKey]
		for _, fk := range child.fks {
			if fk.parent == name && child.hasTuple(fk.cols, row, fk.refCols) {
				return fmt.Errorf("%w: row in %s still referenced by %s",
					ErrForeignKey, parent.def.Name, child.def.Name)
			}
		}
	}
	return nil
}

// --- single-table row environment ---

// buildSingleEnv prepares the name bindings for one table (used by UPDATE and
// DELETE and as a building block for SELECT).
func buildSingleEnv(t *table, alias string, args []Value) *rowEnv {
	if alias == "" {
		alias = t.def.Name
	}
	cols := make(map[string]int, 2*len(t.def.Columns))
	la := strings.ToLower(alias)
	for i, c := range t.def.Columns {
		lc := strings.ToLower(c.Name)
		cols[la+"."+lc] = i
		cols[lc] = i
	}
	return &rowEnv{cols: cols, args: args}
}

// --- UPDATE ---

func (db *DB) execUpdate(s *updateStmt, args []Value) (Result, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return Result{}, fmt.Errorf("update: %w: %s", ErrNoSuchTable, s.Table)
	}
	setIdx := make([]int, len(s.Sets))
	for i, sc := range s.Sets {
		idx, ok := t.colIdx[strings.ToLower(sc.Column)]
		if !ok {
			return Result{}, fmt.Errorf("update %s: no such column %s", s.Table, sc.Column)
		}
		setIdx[i] = idx
	}
	env := buildSingleEnv(t, "", args)
	var updated int64
	// Two passes: compute replacement rows, then validate and apply. This
	// keeps the table unchanged when any row fails a constraint.
	type change struct {
		rowIdx int
		newRow []Value
	}
	var changes []change
	for ri, row := range t.rows {
		env.vals = row
		if s.Where != nil {
			cond, err := evalExpr(s.Where, env)
			if err != nil {
				return Result{}, fmt.Errorf("update %s: %w", s.Table, err)
			}
			if !cond.IsTruthy() {
				continue
			}
		}
		newRow := append([]Value(nil), row...)
		for i, sc := range s.Sets {
			v, err := evalExpr(sc.Value, env)
			if err != nil {
				return Result{}, fmt.Errorf("update %s: %w", s.Table, err)
			}
			cv, err := coerce(v, t.def.Columns[setIdx[i]].Type)
			if err != nil {
				return Result{}, fmt.Errorf("update %s column %s: %w", s.Table, sc.Column, err)
			}
			newRow[setIdx[i]] = cv
		}
		changes = append(changes, change{rowIdx: ri, newRow: newRow})
	}
	// Validate.
	w := db.newRowWriter(t)
	for _, ch := range changes {
		old := t.rows[ch.rowIdx]
		for i, c := range t.def.Columns {
			if c.NotNull && ch.newRow[i].IsNull() {
				return Result{}, fmt.Errorf("update %s: %w: NOT NULL column %s", s.Table, ErrConstraint, c.Name)
			}
		}
		if t.pkIndex != nil {
			oldKey, _ := t.pkKey(old)
			newKey, hasNull := t.pkKey(ch.newRow)
			if hasNull {
				return Result{}, fmt.Errorf("update %s: %w: NULL in PRIMARY KEY", s.Table, ErrConstraint)
			}
			if newKey != oldKey {
				if _, dup := t.pkIndex[newKey]; dup {
					return Result{}, fmt.Errorf("update %s: %w: duplicate PRIMARY KEY", s.Table, ErrConstraint)
				}
				// Changing a referenced key must not orphan children.
				if err := db.checkNoChildReferences(t, old); err != nil {
					return Result{}, fmt.Errorf("update %s: %w", s.Table, err)
				}
			}
		}
		if err := w.checkFKs(ch.newRow); err != nil {
			return Result{}, fmt.Errorf("update %s: %w", s.Table, err)
		}
	}
	// Apply.
	for _, ch := range changes {
		if t.pkIndex != nil {
			oldKey, _ := t.pkKey(t.rows[ch.rowIdx])
			newKey, _ := t.pkKey(ch.newRow)
			if oldKey != newKey {
				delete(t.pkIndex, oldKey)
				t.pkIndex[newKey] = ch.rowIdx
			}
		}
		t.rows[ch.rowIdx] = ch.newRow
		updated++
	}
	return Result{RowsAffected: updated}, nil
}

// --- DELETE ---

func (db *DB) execDelete(s *deleteStmt, args []Value) (Result, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return Result{}, fmt.Errorf("delete: %w: %s", ErrNoSuchTable, s.Table)
	}
	env := buildSingleEnv(t, "", args)
	victims := make(map[int]bool)
	for ri, row := range t.rows {
		env.vals = row
		if s.Where != nil {
			cond, err := evalExpr(s.Where, env)
			if err != nil {
				return Result{}, fmt.Errorf("delete from %s: %w", s.Table, err)
			}
			if !cond.IsTruthy() {
				continue
			}
		}
		victims[ri] = true
	}
	if len(victims) == 0 {
		return Result{}, nil
	}
	// RESTRICT: a victim row must not be referenced by surviving children.
	for ri := range victims {
		if err := db.checkNoChildReferences(t, t.rows[ri]); err != nil {
			// Self-references from rows that are also being deleted are
			// permitted; detect by re-checking against survivors only.
			if !db.onlyDeletedReferences(t, t.rows[ri], victims) {
				return Result{}, fmt.Errorf("delete from %s: %w", s.Table, err)
			}
		}
	}
	kept := make([][]Value, 0, len(t.rows)-len(victims))
	for ri, row := range t.rows {
		if !victims[ri] {
			kept = append(kept, row)
		}
	}
	t.rows = kept
	t.rebuildPKIndex()
	return Result{RowsAffected: int64(len(victims))}, nil
}

// onlyDeletedReferences reports whether every child row referencing the given
// parent row belongs to the same table and is itself being deleted.
func (db *DB) onlyDeletedReferences(parent *table, row []Value, victims map[int]bool) bool {
	name := strings.ToLower(parent.def.Name)
	for _, childKey := range db.order {
		child := db.tables[childKey]
		for _, fk := range child.fks {
			if fk.parent != name {
				continue
			}
			for cri, crow := range child.rows {
				if tupleEqual(crow, fk.cols, row, fk.refCols) && (child != parent || !victims[cri]) {
					return false
				}
			}
		}
	}
	return true
}

func (t *table) rebuildPKIndex() {
	if t.pkIndex == nil {
		return
	}
	t.pkIndex = make(map[string]int, len(t.rows))
	for i, row := range t.rows {
		key, _ := t.pkKey(row)
		t.pkIndex[key] = i
	}
}

// --- SELECT ---

// joinedEnv describes the combined environment of the FROM clause.
type joinedEnv struct {
	cols    map[string]int
	width   int
	sources []sourceBinding
}

type sourceBinding struct {
	t      *table
	alias  string
	offset int
	left   bool     // filled from a LEFT JOIN
	on     exprNode // nil for the first source
}

func (db *DB) buildJoinedEnv(fc *fromClause) (*joinedEnv, error) {
	je := &joinedEnv{cols: make(map[string]int)}
	add := func(name, alias string, left bool, on exprNode) error {
		t, ok := db.tables[strings.ToLower(name)]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchTable, name)
		}
		if alias == "" {
			alias = t.def.Name
		}
		la := strings.ToLower(alias)
		for i, c := range t.def.Columns {
			lc := strings.ToLower(c.Name)
			q := la + "." + lc
			if _, dup := je.cols[q]; dup {
				return fmt.Errorf("duplicate table alias %s", alias)
			}
			je.cols[q] = je.width + i
			if prev, seen := je.cols[lc]; seen && prev != je.width+i {
				je.cols[lc] = -1 // ambiguous bare name
			} else if !seen {
				je.cols[lc] = je.width + i
			}
		}
		je.sources = append(je.sources, sourceBinding{t: t, alias: alias, offset: je.width, left: left, on: on})
		je.width += len(t.def.Columns)
		return nil
	}
	if err := add(fc.Table, fc.Alias, false, nil); err != nil {
		return nil, err
	}
	for _, j := range fc.Joins {
		if err := add(j.Table, j.Alias, j.Left, j.On); err != nil {
			return nil, err
		}
	}
	return je, nil
}

// enumerate produces every joined row (nested loops) and calls fn with a
// reusable environment. fn must copy anything it keeps.
func (je *joinedEnv) enumerate(args []Value, where exprNode, fn func(env *rowEnv) error) error {
	env := &rowEnv{cols: je.cols, vals: make([]Value, je.width), args: args}
	var rec func(si int) error
	rec = func(si int) error {
		if si == len(je.sources) {
			if where != nil {
				cond, err := evalExpr(where, env)
				if err != nil {
					return err
				}
				if !cond.IsTruthy() {
					return nil
				}
			}
			return fn(env)
		}
		src := je.sources[si]
		matched := false
		for _, row := range src.t.rows {
			copy(env.vals[src.offset:src.offset+len(row)], row)
			if src.on != nil {
				cond, err := evalExpr(src.on, env)
				if err != nil {
					return err
				}
				if !cond.IsTruthy() {
					continue
				}
			}
			matched = true
			if err := rec(si + 1); err != nil {
				return err
			}
		}
		if !matched && src.left {
			for i := 0; i < len(src.t.def.Columns); i++ {
				env.vals[src.offset+i] = Null()
			}
			return rec(si + 1)
		}
		return nil
	}
	return rec(0)
}

func (db *DB) execSelect(s *selectStmt, args []Value) (*Rows, error) {
	// SELECT without FROM: evaluate the items once against an empty env.
	if s.From == nil {
		env := &rowEnv{cols: map[string]int{}, args: args}
		out := &Rows{}
		row := make([]Value, 0, len(s.Items))
		for i, item := range s.Items {
			if item.Star {
				return nil, fmt.Errorf("SELECT * requires a FROM clause")
			}
			v, err := evalExpr(item.Expr, env)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			out.Columns = append(out.Columns, outputName(item, i))
		}
		out.Data = append(out.Data, row)
		return out, nil
	}

	je, err := db.buildJoinedEnv(s.From)
	if err != nil {
		return nil, err
	}
	items, colNames, err := expandItems(s.Items, je)
	if err != nil {
		return nil, err
	}

	aggregate := len(s.GroupBy) > 0 || s.Having != nil
	if !aggregate {
		for _, it := range items {
			if it.Expr != nil && containsAggregate(it.Expr) {
				aggregate = true
				break
			}
		}
	}

	var out *Rows
	if aggregate {
		out, err = db.selectAggregate(s, je, items, colNames, args)
	} else {
		out, err = db.selectPlain(s, je, items, colNames, args)
	}
	if err != nil {
		return nil, err
	}

	if s.Distinct {
		out.Data = distinctRows(out.Data)
	}
	if len(s.OrderBy) > 0 && !aggregate {
		// Plain queries were already ordered during collection below.
		_ = out
	}
	if err := applyLimit(s, out, args); err != nil {
		return nil, err
	}
	return out, nil
}

// expandItems resolves * and tbl.* into concrete column expressions.
func expandItems(items []selectItem, je *joinedEnv) ([]selectItem, []string, error) {
	var (
		flat  []selectItem
		names []string
	)
	for i, item := range items {
		if !item.Star {
			flat = append(flat, item)
			names = append(names, outputName(item, i))
			continue
		}
		for _, src := range je.sources {
			if item.StarTable != "" && !strings.EqualFold(item.StarTable, src.alias) {
				continue
			}
			for _, c := range src.t.def.Columns {
				flat = append(flat, selectItem{Expr: newColumnExpr(src.alias, c.Name)})
				names = append(names, c.Name)
			}
		}
		if item.StarTable != "" {
			found := false
			for _, src := range je.sources {
				if strings.EqualFold(item.StarTable, src.alias) {
					found = true
					break
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("no such table alias: %s", item.StarTable)
			}
		}
	}
	return flat, names, nil
}

func outputName(item selectItem, pos int) string {
	if item.Alias != "" {
		return item.Alias
	}
	if ce, ok := item.Expr.(*columnExpr); ok {
		return ce.Column
	}
	if item.Expr != nil {
		return exprString(item.Expr)
	}
	return fmt.Sprintf("col%d", pos+1)
}

type sortableRow struct {
	out  []Value
	keys []Value
}

func (db *DB) selectPlain(s *selectStmt, je *joinedEnv, items []selectItem, colNames []string, args []Value) (*Rows, error) {
	var rows []sortableRow
	err := je.enumerate(args, s.Where, func(env *rowEnv) error {
		out := make([]Value, len(items))
		for i, item := range items {
			v, err := evalExpr(item.Expr, env)
			if err != nil {
				return err
			}
			out[i] = v
		}
		sr := sortableRow{out: out}
		for _, k := range s.OrderBy {
			v, err := evalOrderKey(k.Expr, env, items, out, colNames)
			if err != nil {
				return err
			}
			sr.keys = append(sr.keys, v)
		}
		rows = append(rows, sr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortRows(rows, s.OrderBy)
	res := &Rows{Columns: colNames, Data: make([][]Value, len(rows))}
	for i, r := range rows {
		res.Data[i] = r.out
	}
	return res, nil
}

func (db *DB) selectAggregate(s *selectStmt, je *joinedEnv, items []selectItem, colNames []string, args []Value) (*Rows, error) {
	type groupBucket struct {
		envs []*rowEnv
	}
	groups := make(map[string]*groupBucket)
	var order []string
	var key []byte
	err := je.enumerate(args, s.Where, func(env *rowEnv) error {
		key = key[:0]
		for _, g := range s.GroupBy {
			v, err := evalExpr(g, env)
			if err != nil {
				return err
			}
			key = append(appendKey(key, v), 0)
		}
		b, ok := groups[string(key)]
		if !ok {
			b = &groupBucket{}
			k := string(key)
			groups[k] = b
			order = append(order, k)
		}
		// Snapshot the env: enumerate reuses the vals slice.
		vals := append([]Value(nil), env.vals...)
		b.envs = append(b.envs, &rowEnv{cols: env.cols, vals: vals, args: args})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A no-GROUP-BY aggregate over zero rows still yields one group.
	if len(s.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = &groupBucket{}
		order = append(order, "")
	}

	var rows []sortableRow
	for _, k := range order {
		g := groups[k].envs
		if s.Having != nil {
			hv, err := evalAggregate(s.Having, g)
			if err != nil {
				return nil, err
			}
			if !hv.IsTruthy() {
				continue
			}
		}
		out := make([]Value, len(items))
		for i, item := range items {
			v, err := evalAggregate(item.Expr, g)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		sr := sortableRow{out: out}
		for _, ok := range s.OrderBy {
			v, err := evalAggOrderKey(ok.Expr, g, items, out, colNames)
			if err != nil {
				return nil, err
			}
			sr.keys = append(sr.keys, v)
		}
		rows = append(rows, sr)
	}
	sortRows(rows, s.OrderBy)
	res := &Rows{Columns: colNames, Data: make([][]Value, len(rows))}
	for i, r := range rows {
		res.Data[i] = r.out
	}
	return res, nil
}

// evalOrderKey resolves ORDER BY keys: 1-based output position, output alias,
// or a full expression over the row.
func evalOrderKey(e exprNode, env *rowEnv, items []selectItem, out []Value, colNames []string) (Value, error) {
	if idx, ok := orderKeyOutputIndex(e, items, colNames); ok {
		return out[idx], nil
	}
	return evalExpr(e, env)
}

func evalAggOrderKey(e exprNode, group []*rowEnv, items []selectItem, out []Value, colNames []string) (Value, error) {
	if idx, ok := orderKeyOutputIndex(e, items, colNames); ok {
		return out[idx], nil
	}
	return evalAggregate(e, group)
}

func orderKeyOutputIndex(e exprNode, items []selectItem, colNames []string) (int, bool) {
	switch x := e.(type) {
	case *literalExpr:
		if x.Val.Kind == KindInt && x.Val.Int >= 1 && int(x.Val.Int) <= len(items) {
			return int(x.Val.Int) - 1, true
		}
	case *columnExpr:
		if x.Table == "" {
			for i, name := range colNames {
				if items[i].Alias != "" && strings.EqualFold(name, x.Column) {
					return i, true
				}
			}
		}
	}
	return 0, false
}

func sortRows(rows []sortableRow, keys []orderKey) {
	if len(keys) == 0 {
		return
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for k := range keys {
			a, b := rows[i].keys[k], rows[j].keys[k]
			// NULLs sort first.
			switch {
			case a.IsNull() && b.IsNull():
				continue
			case a.IsNull():
				return !keys[k].Desc
			case b.IsNull():
				return keys[k].Desc
			}
			c, ok := a.Compare(b)
			if !ok || c == 0 {
				continue
			}
			if keys[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

func distinctRows(data [][]Value) [][]Value {
	seen := make(map[string]bool, len(data))
	out := data[:0]
	var key []byte
	for _, row := range data {
		key = key[:0]
		for _, v := range row {
			key = append(appendKey(key, v), 0)
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		out = append(out, row)
	}
	return out
}

func applyLimit(s *selectStmt, out *Rows, args []Value) error {
	if s.Limit == nil {
		return nil
	}
	env := &rowEnv{cols: map[string]int{}, args: args}
	lv, err := evalExpr(s.Limit, env)
	if err != nil {
		return err
	}
	limit, err := lv.AsInt()
	if err != nil {
		return fmt.Errorf("LIMIT: %w", err)
	}
	offset := int64(0)
	if s.Offset != nil {
		ov, err := evalExpr(s.Offset, env)
		if err != nil {
			return err
		}
		offset, err = ov.AsInt()
		if err != nil {
			return fmt.Errorf("OFFSET: %w", err)
		}
	}
	if offset < 0 {
		offset = 0
	}
	if offset > int64(len(out.Data)) {
		offset = int64(len(out.Data))
	}
	end := offset + limit
	if limit < 0 || end > int64(len(out.Data)) {
		end = int64(len(out.Data))
	}
	out.Data = out.Data[offset:end]
	return nil
}
