package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// The dense reference kernel: the full-row pivot the sparse one must
// reproduce exactly, with the loops that drive it. It shares no code
// with pivot, iterate or driveOutArtificials.

func densePivot(t *tableau, r, q int) {
	t.pivots++
	piv := t.a[r][q]
	inv := 1 / piv
	row := t.a[r]
	for j := range row {
		row[j] *= inv
	}
	t.b[r] *= inv
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		f := t.a[i][q]
		if f == 0 {
			continue
		}
		ai := t.a[i]
		for j := range ai {
			ai[j] -= f * row[j]
		}
		t.b[i] -= f * t.b[r]
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0
		}
	}
	for k := 0; k < 2; k++ {
		f := t.d[k][q]
		if f == 0 {
			continue
		}
		dk := t.d[k]
		for j := range dk {
			dk[j] -= f * row[j]
		}
		t.obj[k] += f * t.b[r]
	}
	t.basis[r] = q
}

func denseIterate(t *tableau, k int, allowArt bool, maxIter int) Status {
	const blandAfter = 2000
	for iter := 0; iter < maxIter; iter++ {
		enter := -1
		if iter < blandAfter {
			best := -costEps
			for j := 0; j < t.n; j++ {
				if !allowArt && t.artificial[j] {
					continue
				}
				if t.d[k][j] < best {
					best = t.d[k][j]
					enter = j
				}
			}
		} else {
			for j := 0; j < t.n; j++ {
				if !allowArt && t.artificial[j] {
					continue
				}
				if t.d[k][j] < -costEps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal
		}
		leave := -1
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			if aij <= pivotEps {
				continue
			}
			ratio := t.b[i] / aij
			if ratio < best-1e-12 || (ratio < best+1e-12 && (leave < 0 || t.basis[i] < t.basis[leave])) {
				best = ratio
				leave = i
			}
		}
		if leave < 0 {
			return Unbounded
		}
		densePivot(t, leave, enter)
	}
	return Optimal
}

// denseDriveOutArtificials returns how many of its pivots were on a
// negative entry.
func denseDriveOutArtificials(t *tableau) (negative int) {
	for i := 0; i < t.m; i++ {
		if !t.artificial[t.basis[i]] {
			continue
		}
		for j := 0; j < t.n; j++ {
			if t.artificial[j] {
				continue
			}
			if math.Abs(t.a[i][j]) > 1e-7 {
				if t.a[i][j] < 0 {
					negative++
				}
				densePivot(t, i, j)
				break
			}
		}
	}
	return negative
}

// randomTableau lays out a tableau as solveRelaxation does — structural
// columns, one slack per row, an artificial for some rows — with sparse
// structural entries drawn to include negative values, values just
// around pivotEps and far below it, and degenerate zero right-hand
// sides. Phase-1 costs are priced out for the artificial basis.
func randomTableau(rng *rand.Rand) *tableau {
	m := 3 + rng.Intn(28)
	nStruct := 2 + rng.Intn(2*m)
	art := make([]bool, m)
	nArt := 0
	for i := range art {
		if rng.Intn(3) == 0 {
			art[i] = true
			nArt++
		}
	}
	n := nStruct + m + nArt
	t := &tableau{m: m, n: n, b: make([]float64, m), basis: make([]int, m), artificial: make([]bool, n)}
	t.a = make([][]float64, m)
	t.d[0], t.d[1] = make([]float64, n), make([]float64, n)
	entry := func() float64 {
		v := float64(1 + rng.Intn(9))
		switch rng.Intn(8) {
		case 0:
			v = 1e-12 * v // far below pivotEps: updated, never pivoted on
		case 1:
			v = 5e-10 * v // straddles pivotEps
		case 2:
			v = rng.NormFloat64() * 1e4
		case 3:
			v = 1 / v
		}
		if rng.Intn(3) == 0 {
			v = -v
		}
		return v
	}
	artAt := nStruct + m
	for i := range t.a {
		row := make([]float64, n)
		for j := 0; j < nStruct; j++ {
			if rng.Intn(4) == 0 {
				row[j] = entry()
			}
		}
		if rng.Intn(4) > 0 {
			t.b[i] = math.Abs(entry())
		}
		if art[i] {
			row[nStruct+i] = -1
			row[artAt] = 1
			t.artificial[artAt] = true
			t.basis[i] = artAt
			artAt++
		} else {
			row[nStruct+i] = 1
			t.basis[i] = nStruct + i
		}
		t.a[i] = row
	}
	for j := 0; j < nStruct; j++ {
		if rng.Intn(2) == 0 {
			t.d[1][j] = entry()
		}
	}
	for i, row := range t.a {
		if art[i] {
			for j, v := range row {
				t.d[0][j] -= v
			}
			t.obj[0] += t.b[i]
		}
	}
	for j := range t.d[0] {
		if t.artificial[j] {
			t.d[0][j]++
		}
	}
	return t
}

func cloneTableau(t *tableau) *tableau {
	c := *t
	c.a = make([][]float64, t.m)
	for i, row := range t.a {
		c.a[i] = append([]float64(nil), row...)
	}
	c.b = append([]float64(nil), t.b...)
	c.basis = append([]int(nil), t.basis...)
	c.d[0] = append([]float64(nil), t.d[0]...)
	c.d[1] = append([]float64(nil), t.d[1]...)
	c.artificial = append([]bool(nil), t.artificial...)
	c.cols, c.rows = nil, nil
	return &c
}

// sameTableau reports the first entry where got and want differ.
func sameTableau(t *testing.T, label string, got, want *tableau) bool {
	t.Helper()
	if got.pivots != want.pivots {
		t.Errorf("%s: %d pivots, dense reference %d", label, got.pivots, want.pivots)
		return false
	}
	for i := range want.a {
		if got.basis[i] != want.basis[i] {
			t.Errorf("%s: basis[%d] = %d, dense reference %d", label, i, got.basis[i], want.basis[i])
			return false
		}
		if got.b[i] != want.b[i] {
			t.Errorf("%s: b[%d] = %v, dense reference %v", label, i, got.b[i], want.b[i])
			return false
		}
		for j := range want.a[i] {
			if got.a[i][j] != want.a[i][j] {
				t.Errorf("%s: a[%d][%d] = %v, dense reference %v", label, i, j, got.a[i][j], want.a[i][j])
				return false
			}
		}
	}
	for k := range want.d {
		if got.obj[k] != want.obj[k] {
			t.Errorf("%s: obj[%d] = %v, dense reference %v", label, k, got.obj[k], want.obj[k])
			return false
		}
		for j := range want.d[k] {
			if got.d[k][j] != want.d[k][j] {
				t.Errorf("%s: d[%d][%d] = %v, dense reference %v", label, k, j, got.d[k][j], want.d[k][j])
				return false
			}
		}
	}
	return true
}

// TestPivotMatchesDense: on random sparse tableaux, the sparse kernel
// leaves every entry of a, b, d and obj, and the basis, exactly (==)
// as the dense row operation does — through both phases of iterate,
// whose ratio test supplies the rows to update, and through
// driveOutArtificials, which gathers its own and may pivot on a
// negative entry.
func TestPivotMatchesDense(t *testing.T) {
	lim := limits{ctx: context.Background(), maxIter: 400}
	var pivots, negative int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sparse := randomTableau(rng)
		dense := cloneTableau(sparse)

		// driveOutArtificials straight away: artificials are basic in
		// every row that has one, so it pivots on whatever structural
		// entry comes first, negative ones included.
		driven, drivenRef := cloneTableau(sparse), cloneTableau(sparse)
		driven.driveOutArtificials()
		negative += denseDriveOutArtificials(drivenRef)
		if !sameTableau(t, "driveOutArtificials", driven, drivenRef) {
			t.Fatalf("seed %d", seed)
		}
		pivots += driven.pivots

		// The two phases as solveRelaxation runs them.
		for _, phase := range []struct {
			k        int
			allowArt bool
		}{{0, true}, {1, false}} {
			st, err := sparse.iterate(phase.k, phase.allowArt, lim)
			stRef := denseIterate(dense, phase.k, phase.allowArt, lim.maxIter)
			if err != nil {
				if dense.pivots != lim.maxIter {
					t.Fatalf("seed %d phase %d: %v after %d pivots, dense reference stopped after %d", seed, phase.k, err, sparse.pivots, dense.pivots)
				}
			} else if st != stRef {
				t.Fatalf("seed %d phase %d: status %v, dense reference %v", seed, phase.k, st, stRef)
			}
			if !sameTableau(t, "iterate", sparse, dense) {
				t.Fatalf("seed %d phase %d", seed, phase.k)
			}
			if phase.k == 0 {
				sparse.driveOutArtificials()
				denseDriveOutArtificials(dense)
				if !sameTableau(t, "driveOutArtificials after phase 1", sparse, dense) {
					t.Fatalf("seed %d", seed)
				}
			}
			pivots += sparse.pivots
			sparse.pivots, dense.pivots = 0, 0
		}
	}
	t.Logf("%d pivots, %d driven out on a negative entry", pivots, negative)
	if pivots < 1000 || negative < 50 {
		t.Fatalf("only %d pivots, %d on negative entries: the tableaux exercise too little", pivots, negative)
	}
}
