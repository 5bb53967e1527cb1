package iface

import (
	"testing"

	"partita/internal/ip"
	"partita/internal/kernel"
)

// TestCandidateGridInvariants sweeps a parameter grid of IP shapes and
// asserts the structural invariants of Section 3 hold everywhere:
//
//   - Gain + Exec == TSW exactly;
//   - Exec > 0 for non-degenerate shapes;
//   - the unbuffered types never credit parallel code;
//   - buffered fill/drain and TB are consistent with the Exec equation;
//   - buffered types always exist; unbuffered feasibility follows the
//     port/rate rules;
//   - interface area is positive and buffered > unbuffered for the same
//     controller technology.
func TestCandidateGridInvariants(t *testing.T) {
	am := kernel.DefaultArea()
	id := 0
	for _, inPorts := range []int{1, 2, 3} {
		for _, rate := range []int{1, 2, 4, 8} {
			for _, outRate := range []int{2, 4} {
				for _, latency := range []int{1, 8, 32} {
					for _, pipelined := range []bool{true, false} {
						for _, n := range []int{1, 16, 160} {
							id++
							b := &ip.IP{
								ID: "G", Name: "grid", Funcs: []string{"f"},
								InPorts: inPorts, OutPorts: inPorts,
								InRate: rate, OutRate: outRate,
								Latency: latency, Pipelined: pipelined, Area: 3,
							}
							s := Shape{NIn: n, NOut: n, TSW: 1 << 40, TC: int64(n) * 3}
							cands := Candidates(b, s, am)
							if len(cands) < 2 {
								t.Fatalf("case %d: %d candidates; buffered types must always exist", id, len(cands))
							}
							seen := map[Type]Candidate{}
							for _, c := range cands {
								seen[c.Type] = c
								if c.Gain+c.Exec != s.TSW {
									t.Fatalf("case %d %v: gain %d + exec %d != TSW", id, c.Type, c.Gain, c.Exec)
								}
								if c.Exec <= 0 {
									t.Fatalf("case %d %v: non-positive exec %d", id, c.Type, c.Exec)
								}
								if c.IfaceArea <= 0 {
									t.Fatalf("case %d %v: non-positive area", id, c.Type)
								}
								if !c.Type.SupportsParallel() && c.TCUsed != 0 {
									t.Fatalf("case %d %v: parallel credit on unbuffered type", id, c.Type)
								}
								if c.Type.SupportsParallel() {
									want := c.TIFIn + max(c.TIP, c.TB) + c.TIFOut - c.TCUsed
									if c.Exec != want {
										t.Fatalf("case %d %v: exec %d != equation %d", id, c.Type, c.Exec, want)
									}
									if c.TCUsed > c.TIP || c.TCUsed > s.TC {
										t.Fatalf("case %d %v: TCUsed %d exceeds MIN(TIP=%d, TC=%d)", id, c.Type, c.TCUsed, c.TIP, s.TC)
									}
								} else if c.Exec != max(c.TIP, c.TIF) {
									t.Fatalf("case %d %v: exec %d != MAX(TIP=%d, TIF=%d)", id, c.Type, c.Exec, c.TIP, c.TIF)
								}
							}
							// Feasibility rules.
							_, has0 := seen[Type0]
							_, has2 := seen[Type2]
							wantUnbuffered := inPorts <= 2
							want0 := wantUnbuffered && rate == outRate
							if has0 != want0 {
								t.Fatalf("case %d: type0 feasibility = %v, want %v (ports=%d rates=%d/%d)",
									id, has0, want0, inPorts, rate, outRate)
							}
							if has2 != wantUnbuffered {
								t.Fatalf("case %d: type2 feasibility = %v, want %v", id, has2, wantUnbuffered)
							}
							// Area ordering within controller technology.
							if c0, ok := seen[Type0]; ok {
								if c1 := seen[Type1]; c1.IfaceArea <= c0.IfaceArea {
									t.Fatalf("case %d: IF1 area %g <= IF0 area %g", id, c1.IfaceArea, c0.IfaceArea)
								}
							}
							if c2, ok := seen[Type2]; ok {
								if c3 := seen[Type3]; c3.IfaceArea <= c2.IfaceArea {
									t.Fatalf("case %d: IF3 area %g <= IF2 area %g", id, c3.IfaceArea, c2.IfaceArea)
								}
							}
						}
					}
				}
			}
		}
	}
}
