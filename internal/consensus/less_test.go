package consensus

import (
	"fmt"
	"testing"

	"repro/internal/objects"
	"repro/internal/sim"
)

// TestRenderedLessMatchesSprint: the protocols' minimum keeps the order
// of fmt.Sprint renderings exactly — 100 before 99, −1 before 10, ⊥
// after every digit — on every pair of a table mixing ints, symbols,
// strings and nil, and it renders two ints without allocating.
func TestRenderedLessMatchesSprint(t *testing.T) {
	vals := []sim.Value{9, 10, 99, 100, -1, objects.Bottom, objects.Symbol(3), "99", "a", "", nil}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := renderedLess(a, b), fmt.Sprint(a) < fmt.Sprint(b); got != want {
				t.Errorf("renderedLess(%#v, %#v) = %v, fmt.Sprint order says %v", a, b, got, want)
			}
		}
	}
	var x, y sim.Value = 100, 99
	if n := testing.AllocsPerRun(100, func() { renderedLess(x, y) }); n != 0 {
		t.Fatalf("renderedLess of two ints allocates %v times", n)
	}
}
