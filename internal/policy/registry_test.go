package policy

import (
	"fmt"
	"testing"
)

func TestByName(t *testing.T) {
	for _, name := range registryNames() {
		p, err := ByName(name, 1, 2)
		if err != nil || p == nil {
			t.Fatalf("%s: %v, %v", name, p, err)
		}
	}
	if g, _ := ByName("GREEDY", 1, 2); g != (Greedy{MuI: 1, MuE: 2}) {
		t.Fatalf("GREEDY resolved to %+v", g)
	}
	for _, name := range []string{"NOPE", "if", "PRIO:", "PRIO:a", "PRIO:-1"} {
		if _, err := ByName(name, 1, 1); err == nil {
			t.Errorf("%q accepted", name)
		}
	}
}

// TestByNameRefusesMalformedThreshold: the cap is the whole suffix, a
// non-negative decimal. A prefix parse ran each of these as some THRESH(n)
// under a label, seed and cache key of its own, and "THRESH:-3" as EF.
func TestByNameRefusesMalformedThreshold(t *testing.T) {
	for _, name := range []string{"THRESH:2.5", "THRESH:2abc", "THRESH: 2", "THRESH:-3", "THRESH:+2", "THRESH:02", "THRESH:"} {
		if p, err := ByName(name, 1, 1); err == nil {
			t.Errorf("%q accepted as %s", name, p.Name())
		}
	}
	for _, c := range []int{0, 2, 17} {
		p, err := ByName(fmt.Sprintf("THRESH:%d", c), 1, 1)
		if err != nil || p != (Threshold{Cap: c}) {
			t.Errorf("THRESH:%d resolved to %v, %v", c, p, err)
		}
	}
}
