package compare

// Table-driven coverage of the §6 pair operators on degenerate values:
// zero baselines, NaN measurements (Paradyn imports carry them), and
// infinities. The contract the wire layer depends on: operators never
// panic, and an undefined quantity is NaN — never Inf smuggled out of a
// finite-looking division.

import (
	"math"
	"testing"
)

func TestPairOperatorsTable(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tt := range []struct {
		name                 string
		a, b                 float64
		diff, ratio, speedup float64
	}{
		{"plain", 100, 150, 50, 1.5, 100.0 / 150},
		{"equal", 7, 7, 0, 1, 1},
		{"zero A", 0, 5, 5, nan, 0},
		{"zero B", 5, 0, -5, 0, nan},
		{"both zero", 0, 0, 0, nan, nan},
		{"NaN A", nan, 5, nan, nan, nan},
		{"NaN B", 5, nan, nan, nan, nan},
		{"Inf A", inf, 5, -inf, 0, inf},
		{"Inf B", 5, inf, inf, inf, 0},
		{"-Inf B", 5, -inf, -inf, -inf, -0.0},
		{"Inf both", inf, inf, nan, nan, nan},
		{"negative A", -4, 2, 6, -0.5, -2},
	} {
		t.Run(tt.name, func(t *testing.T) {
			p := Pair{A: tt.a, B: tt.b}
			check := func(op string, got, want float64) {
				t.Helper()
				if math.IsNaN(want) {
					if !math.IsNaN(got) {
						t.Errorf("%s(%v, %v) = %v, want NaN", op, tt.a, tt.b, got)
					}
					return
				}
				if got != want {
					t.Errorf("%s(%v, %v) = %v, want %v", op, tt.a, tt.b, got, want)
				}
			}
			check("Difference", p.Difference(), tt.diff)
			check("Ratio", p.Ratio(), tt.ratio)
			check("Speedup", p.Speedup(), tt.speedup)
		})
	}
}
