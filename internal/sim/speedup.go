package sim

import (
	"fmt"
	"math"
)

// speedupKind enumerates the built-in speedup-function families. The zero
// value is Linear, so a zero ClassSpec describes a fully elastic class.
type speedupKind int

const (
	speedupLinear speedupKind = iota
	speedupCapped
	speedupAmdahl
)

// Speedup is a class's speedup function s(a): the service rate a single job
// of the class attains when allocated a servers. All built-in families
// satisfy the model's requirements from Sections 2 and 6 of the paper:
// s(0) = 0, s is nondecreasing and concave, and s(a) = a for a <= 1
// (a fractional allocation time-shares one server, so no function delivers
// more than linear speedup below one server).
//
// The paper's two classes are Linear (elastic: s(a) = a for all a) and
// Capped(1) (inelastic: s(a) = min(a, 1)). Capped(C) is the Section 2
// extension where a job can use up to C servers, and Amdahl is the
// Section 6 partially elastic class with diminishing returns.
type Speedup struct {
	kind speedupKind
	// c is the cap for Capped; sigma the serial fraction for Amdahl.
	c, sigma float64
}

// LinearSpeedup returns the fully elastic speedup s(a) = a.
func LinearSpeedup() Speedup { return Speedup{kind: speedupLinear} }

// CappedSpeedup returns s(a) = min(a, c): linear up to c servers, flat
// beyond. CappedSpeedup(1) is the paper's inelastic class.
func CappedSpeedup(c float64) Speedup {
	if !(c >= 1) {
		panic(fmt.Sprintf("sim: speedup cap must be >= 1 (got %v)", c))
	}
	return Speedup{kind: speedupCapped, c: c}
}

// InelasticSpeedup returns CappedSpeedup(1), the paper's inelastic class.
func InelasticSpeedup() Speedup { return CappedSpeedup(1) }

// AmdahlSpeedup returns Amdahl's law with serial fraction sigma in [0, 1):
// s(a) = a for a <= 1 and s(a) = 1/(sigma + (1-sigma)/a) beyond, which
// saturates at 1/sigma as a grows. Sigma 0 reduces to Linear.
func AmdahlSpeedup(sigma float64) Speedup {
	if sigma < 0 || sigma >= 1 {
		panic(fmt.Sprintf("sim: Amdahl serial fraction must be in [0,1) (got %v)", sigma))
	}
	return Speedup{kind: speedupAmdahl, sigma: sigma}
}

// Rate returns the service rate s(a) for an allocation of a servers. The
// engine guarantees a >= 0 (and a <= Cap() for capped classes) before
// calling.
func (s Speedup) Rate(a float64) float64 {
	switch s.kind {
	case speedupCapped:
		if a > s.c {
			return s.c
		}
		return a
	case speedupAmdahl:
		if a <= 1 {
			return a
		}
		return 1 / (s.sigma + (1-s.sigma)/a)
	default: // linear
		return a
	}
}

// Cap returns the saturation allocation: the number of servers beyond which
// additional allocation yields no additional service rate. Capped classes
// return their cap; every strictly increasing family returns +Inf. Strict
// class-priority policies give each job up to Cap() servers.
func (s Speedup) Cap() float64 {
	if s.kind == speedupCapped {
		return s.c
	}
	return math.Inf(1)
}

// String names the speedup function.
func (s Speedup) String() string {
	switch s.kind {
	case speedupCapped:
		return fmt.Sprintf("capped(%g)", s.c)
	case speedupAmdahl:
		return fmt.Sprintf("amdahl(%g)", s.sigma)
	default:
		return "linear"
	}
}
