package sqldb

// This file defines the abstract syntax tree produced by the parser.

type statement interface{ stmt() }

// exprNode is any SQL expression.
type exprNode interface{ expr() }

// --- Statements ---

type createTableStmt struct {
	Name        string
	IfNotExists bool
	Columns     []columnDef
	PrimaryKey  []string     // column names; may come from inline PRIMARY KEY
	ForeignKeys []foreignKey // table-level constraints
}

type columnDef struct {
	Name    string
	Type    ColType
	NotNull bool
	Unique  bool
	Default *Value // nil when no DEFAULT clause
}

type foreignKey struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

type dropTableStmt struct {
	Name     string
	IfExists bool
}

type insertStmt struct {
	Table   string
	Columns []string // empty means "all columns, declared order"
	Rows    [][]exprNode
}

type selectStmt struct {
	Distinct bool
	Items    []selectItem
	From     *fromClause // nil for e.g. SELECT 1+1
	Where    exprNode    // nil when absent
	GroupBy  []exprNode
	Having   exprNode
	OrderBy  []orderKey
	Limit    exprNode // nil when absent
	Offset   exprNode
}

type selectItem struct {
	Star      bool   // SELECT * or tbl.*
	StarTable string // non-empty for tbl.*
	Expr      exprNode
	Alias     string
}

type fromClause struct {
	Table string
	Alias string
	Joins []joinClause
}

type joinClause struct {
	Left  bool // LEFT JOIN vs INNER JOIN
	Table string
	Alias string
	On    exprNode
}

type orderKey struct {
	Expr exprNode
	Desc bool
}

type updateStmt struct {
	Table string
	Sets  []setClause
	Where exprNode
}

type setClause struct {
	Column string
	Value  exprNode
}

type deleteStmt struct {
	Table string
	Where exprNode
}

func (*createTableStmt) stmt() {}
func (*dropTableStmt) stmt()   {}
func (*insertStmt) stmt()      {}
func (*selectStmt) stmt()      {}
func (*updateStmt) stmt()      {}
func (*deleteStmt) stmt()      {}

// --- Expressions ---

type literalExpr struct{ Val Value }

type paramExpr struct{ Index int } // 0-based index into the args slice

type columnExpr struct {
	Table  string // optional qualifier
	Column string
	// key is the name rowEnv.cols holds the column under, lower-cased
	// "table.column" or "column". It is resolved when the node is built,
	// because a cached AST is shared and never written afterwards.
	key string
}

type unaryExpr struct {
	Op string // "-" or "NOT"
	X  exprNode
}

type binaryExpr struct {
	Op   string // + - * / % = <> < <= > >= AND OR LIKE ||
	L, R exprNode
}

type isNullExpr struct {
	X   exprNode
	Not bool // IS NOT NULL
}

type inExpr struct {
	X    exprNode
	List []exprNode
	Not  bool
}

// betweenExpr is `X [NOT] BETWEEN Lo AND Hi`.
type betweenExpr struct {
	X, Lo, Hi exprNode
	Not       bool
}

// funcExpr is an aggregate or scalar function call.
type funcExpr struct {
	Name string // upper-cased: COUNT, SUM, AVG, MIN, MAX
	Star bool   // COUNT(*)
	Arg  exprNode
}

func (*literalExpr) expr() {}
func (*paramExpr) expr()   {}
func (*columnExpr) expr()  {}
func (*unaryExpr) expr()   {}
func (*binaryExpr) expr()  {}
func (*isNullExpr) expr()  {}
func (*inExpr) expr()      {}
func (*betweenExpr) expr() {}
func (*funcExpr) expr()    {}
