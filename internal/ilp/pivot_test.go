package ilp

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"partita/internal/budget"
)

// The dense reference kernel: the full-row pivot, bound flip and row
// complement the sparse ones must reproduce exactly, with the loops
// that drive them. It shares no code with pivot, flipColumn,
// complementRow, iterate or driveOutArtificials.

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

// denseFlip moves nonbasic column q to its bound, updating every row.
func denseFlip(t *tableau, q int) {
	t.flips++
	u := t.ub[q]
	for i := 0; i < t.m; i++ {
		f := t.a[i][q]
		if f == 0 {
			continue
		}
		t.b[i] -= f * u
		t.a[i][q] = -f
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0
		}
	}
	for k := 0; k < 2; k++ {
		t.obj[k] += t.d[k][q] * u
		t.d[k][q] = -t.d[k][q]
	}
	t.flip[q] = !t.flip[q]
}

// denseComplement measures the variable basic in row r from its bound.
func denseComplement(t *tableau, r int) {
	bv := t.basis[r]
	for j := range t.a[r] {
		t.a[r][j] = -t.a[r][j]
	}
	t.a[r][bv] = 1
	t.b[r] = t.ub[bv] - t.b[r]
	t.flip[bv] = !t.flip[bv]
}

// denseIterate runs the simplex with the three-stop ratio test:
// a basic variable reaching zero, one reaching its bound (complemented,
// then pivoted out), or the entering column reaching its own bound
// (flipped, preferred on ties). A column with no stop is a ray unless
// it is one part of a split variable whose other part is basic.
// complements counts the second kind of stop.
func denseIterate(t *tableau, k int, allowArt bool, maxIter int) (st Status, complements int) {
	const blandAfter = 2000
	for iter := 0; iter < maxIter; iter++ {
		enter := -1
		if iter < blandAfter {
			best := -costEps
			for j := 0; j < t.n; j++ {
				if !allowArt && j >= t.art {
					continue
				}
				if t.d[k][j] < best {
					best = t.d[k][j]
					enter = j
				}
			}
		} else {
			for j := 0; j < t.n; j++ {
				if !allowArt && j >= t.art {
					continue
				}
				if t.d[k][j] < -costEps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal, complements
		}
		leave, toBound := -1, false
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			u := t.ub[t.basis[i]]
			var ratio float64
			switch {
			case aij > pivotEps:
				ratio = t.b[i] / aij
			case aij < -pivotEps && !math.IsInf(u, 1):
				ratio = (u - t.b[i]) / -aij
			default:
				continue
			}
			if ratio < best-1e-12 || (ratio < best+1e-12 && (leave < 0 || t.basis[i] < t.basis[leave])) {
				best, leave, toBound = ratio, i, aij < 0
			}
		}
		if u := t.ub[enter]; !math.IsInf(u, 1) && u < best+1e-12 {
			denseFlip(t, enter)
			continue
		}
		if leave < 0 {
			partner := -1
			for _, p := range t.pairs {
				switch enter {
				case p[0]:
					partner = p[1]
				case p[1]:
					partner = p[0]
				}
			}
			if partner >= 0 && slices.Contains(t.basis, partner) {
				// The two parts of a variable with no bound move together:
				// not a ray, and a reduced cost that is rounding noise.
				t.d[0][enter], t.d[1][enter] = 0, 0
				continue
			}
			return Unbounded, complements
		}
		if toBound {
			denseComplement(t, leave)
			complements++
		}
		densePivot(t, leave, enter)
	}
	return Optimal, complements
}

// denseDriveOutArtificials returns how many of its pivots were on a
// negative entry.
func denseDriveOutArtificials(t *tableau) (negative int) {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.art {
			continue
		}
		for j := 0; j < t.n; j++ {
			if j >= t.art {
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
// columns, some with a finite bound, one slack per row, an artificial
// for some rows — with sparse structural entries drawn to include
// negative values, values just around pivotEps and far below it, and
// degenerate zero right-hand sides. Phase-1 costs are priced out for
// the artificial basis, and each column's row set holds exactly its
// nonzero rows.
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
	t := &tableau{m: m, n: n, b: make([]float64, m), basis: make([]int, m), art: nStruct + m,
		ub: make([]float64, n), flip: make([]bool, n)}
	for j := range t.ub {
		t.ub[j] = math.Inf(1)
		if j < nStruct && rng.Intn(2) == 0 {
			t.ub[j] = float64(1+rng.Intn(4)) / float64(1+rng.Intn(3))
		}
	}
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
	for j := t.art; j < n; j++ {
		t.d[0][j]++
	}
	indexColumns(t)
	return t
}

// indexColumns sizes t's column row sets and marks every nonzero entry.
func indexColumns(t *tableau) {
	t.words = (t.m + 63) / 64
	t.nz = make([]uint64, t.n*t.words)
	for i, row := range t.a {
		for j, v := range row {
			if v != 0 {
				t.mark(i, j)
			}
		}
	}
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
	c.ub = append([]float64(nil), t.ub...)
	c.flip = append([]bool(nil), t.flip...)
	c.nz = append([]uint64(nil), t.nz...)
	c.cols, c.rows, c.mask = nil, nil, nil
	return &c
}

// sameTableau reports the first entry where got and want differ.
func sameTableau(t *testing.T, label string, got, want *tableau) bool {
	t.Helper()
	if got.pivots != want.pivots || got.flips != want.flips {
		t.Errorf("%s: %d pivots and %d flips, dense reference %d and %d", label, got.pivots, got.flips, want.pivots, want.flips)
		return false
	}
	for j := range want.flip {
		if got.flip[j] != want.flip[j] {
			t.Errorf("%s: flip[%d] = %v, dense reference %v", label, j, got.flip[j], want.flip[j])
			return false
		}
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

// coveredRows reports the first nonzero entry of t whose row is missing
// from its column's row set.
func coveredRows(t *testing.T, label string, tab *tableau) bool {
	t.Helper()
	for i, row := range tab.a {
		for j, v := range row {
			if v != 0 && tab.colSet(j)[i>>6]&(1<<(i&63)) == 0 {
				t.Errorf("%s: a[%d][%d] = %v, but row %d is not in column %d's row set", label, i, j, v, i, j)
				return false
			}
		}
	}
	return true
}

// TestPivotMatchesDense: on random sparse tableaux with some bounded
// columns, the sparse kernel leaves every entry of a, b, d and obj, the
// basis, and the complemented flags exactly (==) as the dense row
// operations do — through both phases of iterate, whose ratio test
// supplies the rows to update and stops at zero, at a basic variable's
// bound, or at the entering column's own, and through
// driveOutArtificials, which gathers its own rows and may pivot on a
// negative entry. After every iteration and every drive-out, each
// nonzero entry's row is in its column's row set, which the ratio test
// walks in place of the whole column.
func TestPivotMatchesDense(t *testing.T) {
	lim := limits{ctx: context.Background(), maxIter: 400}
	var pivots, flips, complements, negative int
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
		if !sameTableau(t, "driveOutArtificials", driven, drivenRef) || !coveredRows(t, "driveOutArtificials", driven) {
			t.Fatalf("seed %d", seed)
		}
		pivots += driven.pivots

		// The two phases as solveRelaxation runs them.
		for _, phase := range []struct {
			k        int
			allowArt bool
		}{{0, true}, {1, false}} {
			// One iteration per call, so the row sets are checked after
			// each; iterate keeps no state between iterations that the
			// 400-iteration cap, short of Bland's burn-in, lets matter.
			var st Status
			err := budget.ErrIterLimit
			for it := 0; it < lim.maxIter && err != nil; it++ {
				st, err = sparse.iterate(phase.k, phase.allowArt, limits{ctx: lim.ctx, maxIter: 1})
				if !coveredRows(t, "iterate", sparse) {
					t.Fatalf("seed %d phase %d iteration %d", seed, phase.k, it)
				}
			}
			stRef, comp := denseIterate(dense, phase.k, phase.allowArt, lim.maxIter)
			complements += comp
			if err != nil {
				if dense.pivots+dense.flips != lim.maxIter {
					t.Fatalf("seed %d phase %d: %v after %d iterations, dense reference stopped after %d", seed, phase.k, err, sparse.pivots+sparse.flips, dense.pivots+dense.flips)
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
				if !sameTableau(t, "driveOutArtificials after phase 1", sparse, dense) || !coveredRows(t, "driveOutArtificials after phase 1", sparse) {
					t.Fatalf("seed %d", seed)
				}
			}
			pivots += sparse.pivots
			flips += sparse.flips
			sparse.pivots, dense.pivots = 0, 0
			sparse.flips, dense.flips = 0, 0
		}
	}
	t.Logf("%d pivots (%d leaving at a bound), %d flips, %d driven out on a negative entry", pivots, complements, flips, negative)
	if pivots < 1000 || complements < 50 || flips < 50 || negative < 50 {
		t.Fatalf("only %d pivots, %d leaving at a bound, %d flips, %d on negative entries: the tableaux exercise too little", pivots, complements, flips, negative)
	}
}
