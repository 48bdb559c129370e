package mathx

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorDot(t *testing.T) {
	x := Vector{1, 2, 3}
	y := Vector{4, -5, 6}
	if got := x.Dot(y); got != 12 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestVectorDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths should panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestVectorAddSub(t *testing.T) {
	x := Vector{1, 2}
	y := Vector{3, 5}
	if got := x.Add(y); got[0] != 4 || got[1] != 7 {
		t.Fatalf("Add = %v", got)
	}
	if got := y.Sub(x); got[0] != 2 || got[1] != 3 {
		t.Fatalf("Sub = %v", got)
	}
}

func TestVectorAXPY(t *testing.T) {
	x := Vector{1, 1, 1}
	x.AXPY(2, Vector{1, 2, 3})
	want := Vector{3, 5, 7}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("AXPY = %v, want %v", x, want)
		}
	}
}

func TestVectorNorm2(t *testing.T) {
	if got := (Vector{3, 4}).Norm2(); !almostEq(got, 5, 1e-12) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := (Vector{}).Norm2(); got != 0 {
		t.Fatalf("empty Norm2 = %v, want 0", got)
	}
	// Scaled accumulation must not overflow.
	big := Constant(4, 1e200)
	if got := big.Norm2(); math.IsInf(got, 0) || !almostEq(got, 2e200, 1e188) {
		t.Fatalf("Norm2 of large vector = %v", got)
	}
}

func TestVectorNormInf(t *testing.T) {
	if got := (Vector{-7, 3, 5}).NormInf(); got != 7 {
		t.Fatalf("NormInf = %v, want 7", got)
	}
}

func TestVectorClamp(t *testing.T) {
	x := Vector{-1, 0.5, 2}
	x.Clamp(Constant(3, 0), Constant(3, 1))
	want := Vector{0, 0.5, 1}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("Clamp = %v, want %v", x, want)
		}
	}
}

// Property: Cauchy–Schwarz |x·y| ≤ ‖x‖‖y‖ for arbitrary vectors.
func TestVectorCauchySchwarzProperty(t *testing.T) {
	f := func(a, b [8]float64) bool {
		x, y := make(Vector, 8), make(Vector, 8)
		for i := range a {
			// Bound the magnitude so the product cannot overflow.
			x[i] = math.Mod(a[i], 1e6)
			y[i] = math.Mod(b[i], 1e6)
			if math.IsNaN(x[i]) {
				x[i] = 0
			}
			if math.IsNaN(y[i]) {
				y[i] = 0
			}
		}
		lhs := math.Abs(x.Dot(y))
		rhs := x.Norm2() * y.Norm2()
		return lhs <= rhs*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality ‖x+y‖ ≤ ‖x‖+‖y‖.
func TestVectorTriangleInequalityProperty(t *testing.T) {
	f := func(a, b [6]float64) bool {
		x, y := make(Vector, 6), make(Vector, 6)
		for i := range a {
			x[i] = math.Mod(a[i], 1e6)
			y[i] = math.Mod(b[i], 1e6)
			if math.IsNaN(x[i]) {
				x[i] = 0
			}
			if math.IsNaN(y[i]) {
				y[i] = 0
			}
		}
		return x.Add(y).Norm2() <= x.Norm2()+y.Norm2()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Test-only vector helpers: reference arithmetic for the kernel tests.

// Constant returns a length-n vector with every element set to v.
func Constant(n int, v float64) Vector {
	x := make(Vector, n)
	for i := range x {
		x[i] = v
	}
	return x
}

// Add returns x + y as a new vector.
func (x Vector) Add(y Vector) Vector {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mathx: Add length mismatch %d vs %d", len(x), len(y)))
	}
	z := make(Vector, len(x))
	for i := range x {
		z[i] = x[i] + y[i]
	}
	return z
}

// Sub returns x − y as a new vector.
func (x Vector) Sub(y Vector) Vector {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mathx: Sub length mismatch %d vs %d", len(x), len(y)))
	}
	z := make(Vector, len(x))
	for i := range x {
		z[i] = x[i] - y[i]
	}
	return z
}

// Norm2 returns the Euclidean norm of x.
func (x Vector) Norm2() float64 {
	// Scaled accumulation avoids overflow for extreme magnitudes.
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}
