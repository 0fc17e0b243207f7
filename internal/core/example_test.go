package core_test

import (
	"fmt"

	"repro/internal/core"
)

// ExampleForLoad shows the figure parameterization: fix the total load and
// the service rates, and the arrival rates follow.
func ExampleForLoad() {
	m := core.ForLoad(4, 0.7, 2.0, 1.0).Params()
	fmt.Printf("lambdaI=%.3f lambdaE=%.3f rho=%.2f\n", m.LambdaI, m.LambdaE, m.Rho())
	// Output: lambdaI=1.867 lambdaE=1.867 rho=0.70
}
