package sqldb

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// stmtCacheBytes bounds the estimated heap bytes the shared statement cache
// retains: statement texts plus their ASTs (see stmtCost). A campaign's hot
// templates — the fault-location inventory INSERTs, experiment flush chunks
// of a few sizes and the per-campaign queries — take 100–250 KB. Cached
// bytes are live heap that the GC target doubles, so the bound is kept
// near that working set rather than generous.
const stmtCacheBytes = 256 << 10

// sharedStmts is the statement cache of every DB New returns. An AST depends
// only on its text, never on a database, so one cache serves every store in
// the process: a campaign that registers its target into a fresh store
// reuses the INSERTs the previous campaign parsed.
var sharedStmts = newStmtCache(stmtCacheBytes)

// stmtCache maps statement texts to their parsed ASTs, evicting the least
// recently used entries to keep its retained bytes within a bound. It is
// safe for concurrent use.
//
// Cached ASTs are shared by every caller that issues the same text, so an
// AST is immutable once parse returns it: execution reads statement nodes
// and never writes them, and anything derived per execution (column
// positions, expanded select items, evaluated values) lives outside the
// tree.
type stmtCache struct {
	mu     sync.Mutex
	limit  int                      // bound on size
	size   int                      // sum of the entries' costs
	byText map[string]*list.Element // of *stmtEntry
	lru    list.List                // most recently used at the front
	misses atomic.Int64             // texts parsed because no entry held them
}

type stmtEntry struct {
	text string
	st   statement
	cost int
}

func newStmtCache(limit int) *stmtCache {
	return &stmtCache{limit: limit, byText: make(map[string]*list.Element)}
}

// parse returns the AST of text, parsing it on a miss. Kept are texts with
// a ? placeholder, the templates a program reissues with fresh arguments
// (checkpoint images load through them too), and CREATE TABLE texts, which
// every store open and image load reissues. Other literal-only texts, such
// as a script's rows, are mostly one-offs that would only evict them.
func (c *stmtCache) parse(text string) (statement, error) {
	c.mu.Lock()
	if el, ok := c.byText[text]; ok {
		c.lru.MoveToFront(el)
		st := el.Value.(*stmtEntry).st
		c.mu.Unlock()
		return st, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)
	st, err := parse(text)
	if err != nil {
		return st, err
	}
	if _, ddl := st.(*createTableStmt); !ddl && !strings.Contains(text, "?") {
		return st, nil
	}
	cost, ok := stmtCost(text, st)
	if !ok || cost > c.limit {
		return st, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, raced := c.byText[text]; raced {
		return st, nil
	}
	for c.size+cost > c.limit {
		old := c.lru.Remove(c.lru.Back()).(*stmtEntry)
		delete(c.byText, old.text)
		c.size -= old.cost
	}
	c.byText[text] = c.lru.PushFront(&stmtEntry{text: text, st: st, cost: cost})
	c.size += cost
	return st, nil
}

// Heap sizes the cost estimate is built from.
const (
	ifaceBytes    = int(unsafe.Sizeof(exprNode(nil)))
	sliceBytes    = int(unsafe.Sizeof([]exprNode(nil)))
	stmtEntryCost = int(unsafe.Sizeof(stmtEntry{})+unsafe.Sizeof(list.Element{})) + 64 // + map slot
)

// stmtCost estimates the heap bytes a cache entry retains: the text, every
// AST node and slice backing array (by capacity), and the entry's own
// bookkeeping. Strings inside the tree are counted even where they alias the
// text, so the estimate errs high. ok is false for statement kinds the cache
// does not hold: DROP TABLE runs once per table.
func stmtCost(text string, st statement) (cost int, ok bool) {
	n := stmtEntryCost + len(text)
	switch s := st.(type) {
	case *createTableStmt:
		n += int(unsafe.Sizeof(*s)) + len(s.Name) + cap(s.Columns)*int(unsafe.Sizeof(columnDef{}))
		for _, c := range s.Columns {
			n += len(c.Name)
			if c.Default != nil {
				n += int(unsafe.Sizeof(*c.Default)) + len(c.Default.Text) + cap(c.Default.Blob)
			}
		}
		n += stringsBytes(s.PrimaryKey) + cap(s.ForeignKeys)*int(unsafe.Sizeof(foreignKey{}))
		for _, fk := range s.ForeignKeys {
			n += stringsBytes(fk.Columns) + len(fk.RefTable) + stringsBytes(fk.RefColumns)
		}
	case *insertStmt:
		n += int(unsafe.Sizeof(*s)) + len(s.Table) + stringsBytes(s.Columns) + cap(s.Rows)*sliceBytes
		for _, row := range s.Rows {
			n += exprsBytes(row)
		}
	case *selectStmt:
		n += int(unsafe.Sizeof(*s)) + cap(s.Items)*int(unsafe.Sizeof(selectItem{}))
		for _, it := range s.Items {
			n += len(it.StarTable) + len(it.Alias) + exprBytes(it.Expr)
		}
		if f := s.From; f != nil {
			n += int(unsafe.Sizeof(*f)) + len(f.Table) + len(f.Alias) + cap(f.Joins)*int(unsafe.Sizeof(joinClause{}))
			for _, j := range f.Joins {
				n += len(j.Table) + len(j.Alias) + exprBytes(j.On)
			}
		}
		n += exprBytes(s.Where) + exprsBytes(s.GroupBy) + exprBytes(s.Having)
		n += cap(s.OrderBy) * int(unsafe.Sizeof(orderKey{}))
		for _, k := range s.OrderBy {
			n += exprBytes(k.Expr)
		}
		n += exprBytes(s.Limit) + exprBytes(s.Offset)
	case *updateStmt:
		n += int(unsafe.Sizeof(*s)) + len(s.Table) + cap(s.Sets)*int(unsafe.Sizeof(setClause{}))
		for _, sc := range s.Sets {
			n += len(sc.Column) + exprBytes(sc.Value)
		}
		n += exprBytes(s.Where)
	case *deleteStmt:
		n += int(unsafe.Sizeof(*s)) + len(s.Table) + exprBytes(s.Where)
	default:
		return 0, false
	}
	return n, true
}

func stringsBytes(ss []string) int {
	n := cap(ss) * int(unsafe.Sizeof(""))
	for _, s := range ss {
		n += len(s)
	}
	return n
}

func exprsBytes(es []exprNode) int {
	n := cap(es) * ifaceBytes
	for _, e := range es {
		n += exprBytes(e)
	}
	return n
}

func exprBytes(e exprNode) int {
	switch x := e.(type) {
	case *literalExpr:
		return int(unsafe.Sizeof(*x)) + len(x.Val.Text) + cap(x.Val.Blob)
	case *paramExpr:
		return int(unsafe.Sizeof(*x))
	case *columnExpr:
		return int(unsafe.Sizeof(*x)) + len(x.Table) + len(x.Column) + len(x.key)
	case *unaryExpr:
		return int(unsafe.Sizeof(*x)) + len(x.Op) + exprBytes(x.X)
	case *binaryExpr:
		return int(unsafe.Sizeof(*x)) + len(x.Op) + exprBytes(x.L) + exprBytes(x.R)
	case *isNullExpr:
		return int(unsafe.Sizeof(*x)) + exprBytes(x.X)
	case *inExpr:
		return int(unsafe.Sizeof(*x)) + exprBytes(x.X) + exprsBytes(x.List)
	case *betweenExpr:
		return int(unsafe.Sizeof(*x)) + exprBytes(x.X) + exprBytes(x.Lo) + exprBytes(x.Hi)
	case *funcExpr:
		return int(unsafe.Sizeof(*x)) + len(x.Name) + exprBytes(x.Arg)
	}
	return 0 // nil: an absent clause
}
