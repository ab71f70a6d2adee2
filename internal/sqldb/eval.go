package sqldb

import (
	"fmt"
	"strings"
)

// rowEnv is the naming environment an expression is evaluated in: a flat
// slice of values with a map from (optionally qualified) column names to
// slice positions.
type rowEnv struct {
	// cols maps lower-cased "alias.col" and, when unambiguous, bare "col"
	// to an index in vals. Ambiguous bare names map to -1.
	cols map[string]int
	vals []Value
	args []Value
}

func (env *rowEnv) lookup(c *columnExpr) (int, error) {
	idx, ok := env.cols[c.key]
	if !ok {
		return 0, fmt.Errorf("no such column: %s", displayName(c.Table, c.Column))
	}
	if idx < 0 {
		return 0, fmt.Errorf("ambiguous column name: %s", displayName(c.Table, c.Column))
	}
	return idx, nil
}

func displayName(table, column string) string {
	if table != "" {
		return table + "." + column
	}
	return column
}

// evalExpr evaluates a non-aggregate expression in the environment.
func evalExpr(e exprNode, env *rowEnv) (Value, error) {
	switch x := e.(type) {
	case *literalExpr:
		return x.Val, nil
	case *paramExpr:
		if x.Index >= len(env.args) {
			return Value{}, fmt.Errorf("statement requires at least %d parameters, got %d", x.Index+1, len(env.args))
		}
		return env.args[x.Index], nil
	case *columnExpr:
		idx, err := env.lookup(x)
		if err != nil {
			return Value{}, err
		}
		return env.vals[idx], nil
	case *unaryExpr:
		return evalUnary(x, env)
	case *binaryExpr:
		return evalBinary(x, env)
	case *isNullExpr:
		v, err := evalExpr(x.X, env)
		if err != nil {
			return Value{}, err
		}
		return Bool(v.IsNull() != x.Not), nil
	case *inExpr:
		return evalIn(x, env)
	case *betweenExpr:
		return evalBetween(x, env)
	case *funcExpr:
		return Value{}, fmt.Errorf("aggregate function %s used outside aggregate context", x.Name)
	default:
		return Value{}, fmt.Errorf("unsupported expression node %T", e)
	}
}

func evalUnary(x *unaryExpr, env *rowEnv) (Value, error) {
	v, err := evalExpr(x.X, env)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "-":
		if v.IsNull() {
			return Null(), nil
		}
		switch v.Kind {
		case KindInt:
			return Int64(-v.Int), nil
		case KindReal:
			return Float64(-v.Real), nil
		default:
			return Value{}, fmt.Errorf("cannot negate %s", v.Kind)
		}
	case "NOT":
		if v.IsNull() {
			return Null(), nil
		}
		return Bool(!v.IsTruthy()), nil
	default:
		return Value{}, fmt.Errorf("unknown unary operator %q", x.Op)
	}
}

func evalBinary(x *binaryExpr, env *rowEnv) (Value, error) {
	// AND/OR get short-circuit treatment with SQL three-valued logic.
	switch x.Op {
	case "AND", "OR":
		return evalLogical(x, env)
	}
	l, err := evalExpr(x.L, env)
	if err != nil {
		return Value{}, err
	}
	r, err := evalExpr(x.R, env)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "+", "-", "*", "/", "%":
		return evalArith(x.Op, l, r)
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Text(l.String() + r.String()), nil
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		c, ok := l.Compare(r)
		if !ok {
			// Incomparable kinds: SQL engines treat as simply unequal.
			return Bool(x.Op == "<>"), nil
		}
		switch x.Op {
		case "=":
			return Bool(c == 0), nil
		case "<>":
			return Bool(c != 0), nil
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Bool(likeMatch(r.String(), l.String())), nil
	default:
		return Value{}, fmt.Errorf("unknown binary operator %q", x.Op)
	}
}

func evalLogical(x *binaryExpr, env *rowEnv) (Value, error) {
	l, err := evalExpr(x.L, env)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "AND":
		if !l.IsNull() && !l.IsTruthy() {
			return Bool(false), nil
		}
	case "OR":
		if !l.IsNull() && l.IsTruthy() {
			return Bool(true), nil
		}
	}
	r, err := evalExpr(x.R, env)
	if err != nil {
		return Value{}, err
	}
	// Three-valued logic combination.
	lt, ln := l.IsTruthy(), l.IsNull()
	rt, rn := r.IsTruthy(), r.IsNull()
	if x.Op == "AND" {
		switch {
		case (!ln && !lt) || (!rn && !rt):
			return Bool(false), nil
		case ln || rn:
			return Null(), nil
		default:
			return Bool(true), nil
		}
	}
	switch {
	case (!ln && lt) || (!rn && rt):
		return Bool(true), nil
	case ln || rn:
		return Null(), nil
	default:
		return Bool(false), nil
	}
}

func evalArith(op string, l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	if l.Kind == KindInt && r.Kind == KindInt {
		switch op {
		case "+":
			return Int64(l.Int + r.Int), nil
		case "-":
			return Int64(l.Int - r.Int), nil
		case "*":
			return Int64(l.Int * r.Int), nil
		case "/":
			if r.Int == 0 {
				return Null(), nil
			}
			return Int64(l.Int / r.Int), nil
		case "%":
			if r.Int == 0 {
				return Null(), nil
			}
			return Int64(l.Int % r.Int), nil
		}
	}
	lf, err := l.AsReal()
	if err != nil {
		return Value{}, fmt.Errorf("arithmetic on %s: %w", l.Kind, err)
	}
	rf, err := r.AsReal()
	if err != nil {
		return Value{}, fmt.Errorf("arithmetic on %s: %w", r.Kind, err)
	}
	switch op {
	case "+":
		return Float64(lf + rf), nil
	case "-":
		return Float64(lf - rf), nil
	case "*":
		return Float64(lf * rf), nil
	case "/":
		if rf == 0 {
			return Null(), nil
		}
		return Float64(lf / rf), nil
	case "%":
		if int64(rf) == 0 {
			return Null(), nil
		}
		return Int64(int64(lf) % int64(rf)), nil
	}
	return Value{}, fmt.Errorf("unknown arithmetic operator %q", op)
}

func evalIn(x *inExpr, env *rowEnv) (Value, error) {
	v, err := evalExpr(x.X, env)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull() {
		return Null(), nil
	}
	sawNull := false
	for _, item := range x.List {
		iv, err := evalExpr(item, env)
		if err != nil {
			return Value{}, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if v.Equal(iv) {
			return Bool(!x.Not), nil
		}
	}
	if sawNull {
		return Null(), nil
	}
	return Bool(x.Not), nil
}

func evalBetween(x *betweenExpr, env *rowEnv) (Value, error) {
	v, err := evalExpr(x.X, env)
	if err != nil {
		return Value{}, err
	}
	lo, err := evalExpr(x.Lo, env)
	if err != nil {
		return Value{}, err
	}
	hi, err := evalExpr(x.Hi, env)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return Null(), nil
	}
	cl, ok1 := v.Compare(lo)
	ch, ok2 := v.Compare(hi)
	if !ok1 || !ok2 {
		return Bool(x.Not), nil // incomparable kinds: not between
	}
	in := cl >= 0 && ch <= 0
	return Bool(in != x.Not), nil
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single char),
// matching case-insensitively over ASCII as common engines do.
func likeMatch(pattern, s string) bool {
	return likeMatchFold(strings.ToLower(pattern), strings.ToLower(s))
}

func likeMatchFold(p, s string) bool {
	// Iterative matcher with backtracking over the last %.
	var pi, si int
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			pi++
			si++
		case pi < len(p) && p[pi] == '%':
			starP = pi
			starS = si
			pi++
		case starP >= 0:
			starS++
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// containsAggregate reports whether the expression tree contains an
// aggregate function call.
func containsAggregate(e exprNode) bool {
	switch x := e.(type) {
	case *funcExpr:
		return true
	case *unaryExpr:
		return containsAggregate(x.X)
	case *binaryExpr:
		return containsAggregate(x.L) || containsAggregate(x.R)
	case *isNullExpr:
		return containsAggregate(x.X)
	case *inExpr:
		if containsAggregate(x.X) {
			return true
		}
		for _, it := range x.List {
			if containsAggregate(it) {
				return true
			}
		}
	case *betweenExpr:
		return containsAggregate(x.X) || containsAggregate(x.Lo) || containsAggregate(x.Hi)
	}
	return false
}

// evalAggregate evaluates an expression in aggregate context over the rows
// of one group. Bare columns evaluate against the group's first row.
func evalAggregate(e exprNode, group []*rowEnv) (Value, error) {
	if len(group) == 0 {
		return Null(), nil
	}
	switch x := e.(type) {
	case *funcExpr:
		return evalAggFunc(x, group)
	case *unaryExpr:
		inner, err := evalAggregate(x.X, group)
		if err != nil {
			return Value{}, err
		}
		return evalUnary(&unaryExpr{Op: x.Op, X: &literalExpr{Val: inner}}, group[0])
	case *binaryExpr:
		l, err := evalAggregate(x.L, group)
		if err != nil {
			return Value{}, err
		}
		r, err := evalAggregate(x.R, group)
		if err != nil {
			return Value{}, err
		}
		return evalBinary(&binaryExpr{Op: x.Op, L: &literalExpr{Val: l}, R: &literalExpr{Val: r}}, group[0])
	case *isNullExpr:
		inner, err := evalAggregate(x.X, group)
		if err != nil {
			return Value{}, err
		}
		return Bool(inner.IsNull() != x.Not), nil
	default:
		return evalExpr(e, group[0])
	}
}

func evalAggFunc(x *funcExpr, group []*rowEnv) (Value, error) {
	if x.Star { // COUNT(*)
		return Int64(int64(len(group))), nil
	}
	var (
		count  int64
		sumI   int64
		sumF   float64
		isReal bool
		minV   Value
		maxV   Value
	)
	for _, env := range group {
		v, err := evalExpr(x.Arg, env)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			continue
		}
		count++
		switch x.Name {
		case "SUM", "AVG":
			switch v.Kind {
			case KindInt:
				sumI += v.Int
				sumF += float64(v.Int)
			case KindReal:
				isReal = true
				sumF += v.Real
			default:
				f, err := v.AsReal()
				if err != nil {
					return Value{}, fmt.Errorf("%s over %s: %w", x.Name, v.Kind, err)
				}
				isReal = true
				sumF += f
			}
		case "MIN":
			if minV.IsNull() {
				minV = v
			} else if c, ok := v.Compare(minV); ok && c < 0 {
				minV = v
			}
		case "MAX":
			if maxV.IsNull() {
				maxV = v
			} else if c, ok := v.Compare(maxV); ok && c > 0 {
				maxV = v
			}
		}
	}
	switch x.Name {
	case "COUNT":
		return Int64(count), nil
	case "SUM":
		if count == 0 {
			return Null(), nil
		}
		if isReal {
			return Float64(sumF), nil
		}
		return Int64(sumI), nil
	case "AVG":
		if count == 0 {
			return Null(), nil
		}
		return Float64(sumF / float64(count)), nil
	case "MIN":
		return minV, nil
	case "MAX":
		return maxV, nil
	default:
		return Value{}, fmt.Errorf("unknown aggregate %q", x.Name)
	}
}
