// Package sqldb implements the embedded, SQL-compatible relational database
// that GOOFI stores all of its data in (paper §1, §2.3).
//
// The engine supports a pragmatic SQL subset sufficient for the GOOFI schema
// of Fig. 4 and for the analysis phase of §3.4: CREATE TABLE with PRIMARY KEY
// and enforced FOREIGN KEY constraints, INSERT, SELECT with WHERE / INNER
// JOIN / GROUP BY / aggregates / ORDER BY / LIMIT, UPDATE, DELETE, and `?`
// parameter placeholders. Databases persist to a single file.
package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// ColType enumerates the column types supported by the engine.
type ColType int

// Supported column types.
const (
	TypeInteger ColType = iota + 1
	TypeReal
	TypeText
	TypeBlob
)

// String returns the SQL name of the type.
func (t ColType) String() string {
	switch t {
	case TypeInteger:
		return "INTEGER"
	case TypeReal:
		return "REAL"
	case TypeText:
		return "TEXT"
	case TypeBlob:
		return "BLOB"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// ValueKind tags the dynamic type held by a Value.
type ValueKind int

// Value kinds. KindNull is deliberately the zero value so that a zero Value
// is SQL NULL.
const (
	KindNull ValueKind = iota
	KindInt
	KindReal
	KindText
	KindBlob
)

// Value is a single SQL value: NULL, INTEGER, REAL, TEXT or BLOB.
type Value struct {
	Kind ValueKind
	Int  int64
	Real float64
	Text string
	Blob []byte
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int64 returns an INTEGER value.
func Int64(v int64) Value { return Value{Kind: KindInt, Int: v} }

// Float64 returns a REAL value.
func Float64(v float64) Value { return Value{Kind: KindReal, Real: v} }

// Text returns a TEXT value.
func Text(v string) Value { return Value{Kind: KindText, Text: v} }

// Blob returns a BLOB value that shares v rather than copying it: a value
// bound to an INSERT becomes the stored row's bytes, so the caller must not
// modify v afterwards.
func Blob(v []byte) Value { return Value{Kind: KindBlob, Blob: v} }

// Bool returns the engine's boolean encoding (INTEGER 0 or 1).
func Bool(v bool) Value {
	if v {
		return Int64(1)
	}
	return Int64(0)
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// IsTruthy reports whether the value counts as true in a WHERE clause.
// NULL is not truthy.
func (v Value) IsTruthy() bool {
	switch v.Kind {
	case KindInt:
		return v.Int != 0
	case KindReal:
		return v.Real != 0
	case KindText:
		return v.Text != ""
	case KindBlob:
		return len(v.Blob) > 0
	default:
		return false
	}
}

// AsInt converts the value to int64 where possible.
func (v Value) AsInt() (int64, error) {
	switch v.Kind {
	case KindInt:
		return v.Int, nil
	case KindReal:
		return int64(v.Real), nil
	case KindText:
		n, err := strconv.ParseInt(strings.TrimSpace(v.Text), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("convert %q to INTEGER: %w", v.Text, err)
		}
		return n, nil
	default:
		return 0, fmt.Errorf("cannot convert %s to INTEGER", v.Kind)
	}
}

// AsReal converts the value to float64 where possible.
func (v Value) AsReal() (float64, error) {
	switch v.Kind {
	case KindInt:
		return float64(v.Int), nil
	case KindReal:
		return v.Real, nil
	case KindText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.Text), 64)
		if err != nil {
			return 0, fmt.Errorf("convert %q to REAL: %w", v.Text, err)
		}
		return f, nil
	default:
		return 0, fmt.Errorf("cannot convert %s to REAL", v.Kind)
	}
}

// String renders the value roughly as SQL would display it.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindReal:
		return strconv.FormatFloat(v.Real, 'g', -1, 64)
	case KindText:
		return v.Text
	case KindBlob:
		return fmt.Sprintf("x'%x'", v.Blob)
	default:
		return fmt.Sprintf("Value(kind=%d)", int(v.Kind))
	}
}

// String returns a readable name for the kind.
func (k ValueKind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindReal:
		return "REAL"
	case KindText:
		return "TEXT"
	case KindBlob:
		return "BLOB"
	default:
		return fmt.Sprintf("ValueKind(%d)", int(k))
	}
}

// Equal reports SQL equality between two values (NULL never equals anything,
// including NULL; use IsNull for NULL checks). Numeric kinds compare across
// INTEGER/REAL.
func (v Value) Equal(o Value) bool {
	c, ok := compareValues(v, o)
	return ok && c == 0
}

// Compare orders two values. It returns (cmp, ok); ok is false when either
// value is NULL or the kinds are incomparable. cmp is -1, 0 or 1.
func (v Value) Compare(o Value) (int, bool) {
	return compareValues(v, o)
}

func compareValues(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	// Numeric cross-kind comparison.
	if (a.Kind == KindInt || a.Kind == KindReal) && (b.Kind == KindInt || b.Kind == KindReal) {
		if a.Kind == KindInt && b.Kind == KindInt {
			return cmpInt(a.Int, b.Int), true
		}
		af, _ := a.AsReal()
		bf, _ := b.AsReal()
		return cmpFloat(af, bf), true
	}
	if a.Kind != b.Kind {
		return 0, false
	}
	switch a.Kind {
	case KindText:
		return strings.Compare(a.Text, b.Text), true
	case KindBlob:
		return strings.Compare(string(a.Blob), string(b.Blob)), true
	default:
		return 0, false
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// appendKey appends a key uniquely identifying v for PRIMARY KEY, FOREIGN
// KEY, GROUP BY and DISTINCT purposes to dst. Integers and reals that are
// numerically equal map to the same key ("i3" for both 3 and 3.0).
func appendKey(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, 'n')
	case KindInt:
		return strconv.AppendInt(append(dst, 'i'), v.Int, 10)
	case KindReal:
		if v.Real == float64(int64(v.Real)) {
			return strconv.AppendInt(append(dst, 'i'), int64(v.Real), 10)
		}
		return strconv.AppendFloat(append(dst, 'r'), v.Real, 'b', -1, 64)
	case KindText:
		return append(append(dst, 't'), v.Text...)
	case KindBlob:
		return append(append(dst, 'b'), v.Blob...)
	default:
		return append(dst, '?')
	}
}

// coerce adapts a value to a column type on INSERT/UPDATE, mirroring the lax
// affinity rules of common embedded SQL engines.
func coerce(v Value, t ColType) (Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch t {
	case TypeInteger:
		switch v.Kind {
		case KindInt:
			return v, nil
		case KindReal:
			return Int64(int64(v.Real)), nil
		default:
			n, err := v.AsInt()
			if err != nil {
				return Value{}, err
			}
			return Int64(n), nil
		}
	case TypeReal:
		f, err := v.AsReal()
		if err != nil {
			return Value{}, err
		}
		return Float64(f), nil
	case TypeText:
		switch v.Kind {
		case KindText:
			return v, nil
		case KindBlob:
			return Text(string(v.Blob)), nil
		default:
			return Text(v.String()), nil
		}
	case TypeBlob:
		switch v.Kind {
		case KindBlob:
			return v, nil
		case KindText:
			return Blob([]byte(v.Text)), nil
		default:
			return Value{}, fmt.Errorf("cannot store %s in BLOB column", v.Kind)
		}
	default:
		return Value{}, fmt.Errorf("unknown column type %v", t)
	}
}
