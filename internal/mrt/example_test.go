package mrt_test

import (
	"fmt"

	"repro/internal/mrt"
	"repro/internal/queueing"
)

// ExampleAnalyze runs the Section 5 matrix-analytic pipeline for both
// policies and prints which one Theorem 5 predicts to win.
func ExampleAnalyze() {
	m := queueing.ForLoad(4, 0.7, 2.0, 1.0) // muI > muE: IF optimal
	ifRes, efRes, err := mrt.Analyze(m)
	if err != nil {
		panic(err)
	}
	fmt.Printf("IF beats EF: %v\n", ifRes.T < efRes.T)
	// Output: IF beats EF: true
}
