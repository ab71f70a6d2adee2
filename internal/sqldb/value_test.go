package sqldb

import (
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndKinds(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind ValueKind
	}{
		{"null", Null(), KindNull},
		{"int", Int64(42), KindInt},
		{"real", Float64(3.5), KindReal},
		{"text", Text("hi"), KindText},
		{"blob", Blob([]byte{1, 2}), KindBlob},
		{"bool true", Bool(true), KindInt},
		{"bool false", Bool(false), KindInt},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.v.Kind != tt.kind {
				t.Fatalf("kind = %v, want %v", tt.v.Kind, tt.kind)
			}
		})
	}
}

// TestBlobSharesInput pins Blob's ownership contract: the value holds the
// caller's bytes, not a copy, so an inserted state vector is stored without
// being copied again.
func TestBlobSharesInput(t *testing.T) {
	src := []byte{1, 2, 3}
	v := Blob(src)
	if len(v.Blob) != len(src) || &v.Blob[0] != &src[0] {
		t.Fatalf("Blob copied its input: %p vs %p", v.Blob, src)
	}
}

func TestValueIsTruthy(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		want bool
	}{
		{"null", Null(), false},
		{"zero int", Int64(0), false},
		{"nonzero int", Int64(-1), true},
		{"zero real", Float64(0), false},
		{"nonzero real", Float64(0.1), true},
		{"empty text", Text(""), false},
		{"text", Text("x"), true},
		{"empty blob", Blob(nil), false},
		{"blob", Blob([]byte{0}), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.IsTruthy(); got != tt.want {
				t.Fatalf("IsTruthy = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestValueAsInt(t *testing.T) {
	if n, err := Int64(7).AsInt(); err != nil || n != 7 {
		t.Fatalf("AsInt(7) = %d, %v", n, err)
	}
	if n, err := Float64(7.9).AsInt(); err != nil || n != 7 {
		t.Fatalf("AsInt(7.9) = %d, %v", n, err)
	}
	if n, err := Text(" 12 ").AsInt(); err != nil || n != 12 {
		t.Fatalf("AsInt(' 12 ') = %d, %v", n, err)
	}
	if _, err := Text("xyz").AsInt(); err == nil {
		t.Fatal("AsInt('xyz') should fail")
	}
	if _, err := Null().AsInt(); err == nil {
		t.Fatal("AsInt(NULL) should fail")
	}
}

func TestValueAsReal(t *testing.T) {
	if f, err := Int64(3).AsReal(); err != nil || f != 3 {
		t.Fatalf("AsReal(3) = %g, %v", f, err)
	}
	if f, err := Text("2.5").AsReal(); err != nil || f != 2.5 {
		t.Fatalf("AsReal('2.5') = %g, %v", f, err)
	}
	if _, err := Blob([]byte{1}).AsReal(); err == nil {
		t.Fatal("AsReal(blob) should fail")
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		name string
		a, b Value
		cmp  int
		ok   bool
	}{
		{"int lt", Int64(1), Int64(2), -1, true},
		{"int eq", Int64(2), Int64(2), 0, true},
		{"int vs real", Int64(2), Float64(1.5), 1, true},
		{"real vs int equal", Float64(2), Int64(2), 0, true},
		{"text", Text("a"), Text("b"), -1, true},
		{"blob", Blob([]byte("ab")), Blob([]byte("ab")), 0, true},
		{"null left", Null(), Int64(1), 0, false},
		{"null right", Int64(1), Null(), 0, false},
		{"text vs int", Text("1"), Int64(1), 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, ok := tt.a.Compare(tt.b)
			if ok != tt.ok || (ok && c != tt.cmp) {
				t.Fatalf("Compare = %d,%v want %d,%v", c, ok, tt.cmp, tt.ok)
			}
		})
	}
}

func TestValueEqualNullSemantics(t *testing.T) {
	if Null().Equal(Null()) {
		t.Fatal("NULL must not equal NULL")
	}
	if Null().Equal(Int64(0)) {
		t.Fatal("NULL must not equal 0")
	}
}

func TestCoerce(t *testing.T) {
	tests := []struct {
		name    string
		in      Value
		typ     ColType
		want    Value
		wantErr bool
	}{
		{"int to int", Int64(5), TypeInteger, Int64(5), false},
		{"real to int", Float64(5.7), TypeInteger, Int64(5), false},
		{"text to int", Text("9"), TypeInteger, Int64(9), false},
		{"bad text to int", Text("q"), TypeInteger, Value{}, true},
		{"int to real", Int64(2), TypeReal, Float64(2), false},
		{"int to text", Int64(2), TypeText, Text("2"), false},
		{"blob to text", Blob([]byte("hi")), TypeText, Text("hi"), false},
		{"text to blob", Text("hi"), TypeBlob, Blob([]byte("hi")), false},
		{"int to blob", Int64(1), TypeBlob, Value{}, true},
		{"null passes through", Null(), TypeInteger, Null(), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := coerce(tt.in, tt.typ)
			if (err != nil) != tt.wantErr {
				t.Fatalf("coerce err = %v, wantErr=%v", err, tt.wantErr)
			}
			if err == nil && got.Kind != tt.want.Kind {
				t.Fatalf("coerce kind = %v, want %v", got.Kind, tt.want.Kind)
			}
		})
	}
}

// Property: Compare is antisymmetric and consistent with Equal for integers.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int64(a), Int64(b)
		c1, ok1 := va.Compare(vb)
		c2, ok2 := vb.Compare(va)
		if !ok1 || !ok2 {
			return false
		}
		if c1 != -c2 {
			return false
		}
		return (c1 == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// keyOf is the map key appendKey builds for one value.
func keyOf(v Value) string { return string(appendKey(nil, v)) }

// Property: the PK key function is injective on integers and distinguishes
// kinds (no text collides with the int encoding of its own digits).
func TestValueKeyProperty(t *testing.T) {
	f := func(a, b int64) bool {
		if a == b {
			return keyOf(Int64(a)) == keyOf(Int64(b))
		}
		return keyOf(Int64(a)) != keyOf(Int64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if keyOf(Int64(12)) == keyOf(Text("12")) {
		t.Fatal("int and text keys must differ")
	}
	// Numerically equal int and real share a key (needed for cross-kind PKs).
	if keyOf(Int64(3)) != keyOf(Float64(3)) {
		t.Fatal("int 3 and real 3.0 should share a key")
	}
}

func TestColTypeString(t *testing.T) {
	for typ, want := range map[ColType]string{
		TypeInteger: "INTEGER", TypeReal: "REAL", TypeText: "TEXT", TypeBlob: "BLOB",
	} {
		if got := typ.String(); got != want {
			t.Errorf("ColType.String() = %q, want %q", got, want)
		}
	}
}

func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int64(-3), "-3"},
		{Float64(2.5), "2.5"},
		{Text("abc"), "abc"},
		{Blob([]byte{0xde, 0xad}), "x'dead'"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}
