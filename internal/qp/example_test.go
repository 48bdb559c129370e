package qp_test

import (
	"fmt"

	"sprintcon/internal/mathx"
	"sprintcon/internal/qp"
)

// A 2-variable box-constrained QP: the unconstrained minimum (1, 2) is cut
// off by the box [0, 1.5]².
func ExampleSolve() {
	p := qp.Problem{
		C:  0, // H = diag(D) + C·11ᵀ is the identity
		D:  mathx.Vector{1, 1},
		G:  mathx.Vector{-1, -2},
		Lo: mathx.Vector{0, 0},
		Hi: mathx.Vector{1.5, 1.5},
	}
	res, err := qp.Solve(p, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("x = [%.1f %.1f], converged=%v\n", res.X[0], res.X[1], res.Converged)
	// Output:
	// x = [1.0 1.5], converged=true
}
