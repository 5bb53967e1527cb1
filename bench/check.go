package main

// The oracle. Everything here reads only imp.DB fields and re-derives a
// selection's feasibility, area, and gain from the paper's constraints
// (one IMP per s-call, Problem-2 conflict pairs, per-path gain >= the
// requirement, fixed-charge area counted once). It deliberately imports
// neither the selector nor the ILP solver, so a bug there cannot hide
// behind the same bug here.

import (
	"fmt"
	"math"

	"partita/internal/cdfg"
	"partita/internal/imp"
)

// answer is a selection outcome as a reference records it.
type answer struct {
	Status string  `json:"s"`
	Area   float64 `json:"a,omitempty"`
	Gain   int64   `json:"g,omitempty"`
}

// claim is what a solver returned: its status, chosen methods, and the
// area and gain it reported for them.
type claim struct {
	Status string
	Chosen []*imp.IMP
	Area   float64
	Gain   int64
}

// derived is what the oracle re-derives from a chosen set: the paper's
// A, G, S, and O columns.
type derived struct {
	Area float64
	Gain int64
	S, O int
}

// sameArea compares areas at 1e-6 relative tolerance: the serial and
// parallel solvers sum the same areas in different orders, so the last
// bits differ (31.9 vs 31.899999999999995).
func sameArea(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b))
}

// derive checks chosen against the constraints of db at the uniform
// required gain rg and returns its re-derived columns. ipArea overrides
// IP areas by ID (interactive edits); nil keeps the database's.
func derive(db *imp.DB, chosen []*imp.IMP, rg int64, ipArea map[string]float64) (derived, error) {
	var d derived
	member := make(map[*imp.IMP]bool, len(db.IMPs))
	for _, m := range db.IMPs {
		member[m] = true
	}
	perSC := map[*imp.SCall]bool{}
	owner := map[*cdfg.Node]*imp.IMP{}
	for _, m := range chosen {
		if !member[m] {
			return d, fmt.Errorf("method %s is not in the database", m.ID)
		}
		if perSC[m.SC] {
			return d, fmt.Errorf("two methods chosen for %s", m.SC.Name())
		}
		perSC[m.SC] = true
		for _, site := range m.SC.Sites {
			owner[site] = m
		}
	}
	// Problem-2 conflicts: a method whose parallel code is the software
	// body of an s-call excludes every hardware method of that s-call.
	for _, m := range chosen {
		for _, n := range m.PCSCalls {
			if o := owner[n]; o != nil && o != m {
				return d, fmt.Errorf("%s uses the software body of %s, which %s implements in hardware", m.ID, o.SC.Name(), o.ID)
			}
		}
	}
	if rg > 0 {
		for k, path := range db.Paths {
			var g int64
			seen := map[*cdfg.Node]bool{}
			for _, n := range path {
				if m := owner[n]; m != nil && !seen[n] {
					seen[n] = true
					g += n.Freq * m.GainPerExec
				}
			}
			if g < rg {
				return d, fmt.Errorf("path %d gains %d, below the required %d", k, g, rg)
			}
		}
	}
	type group struct {
		ip        string
		ifType    int
		flattened string
	}
	ips := map[string]float64{}
	groups := map[group]float64{}
	for _, m := range chosen {
		area := m.IP.Area
		if a, ok := ipArea[m.IP.ID]; ok {
			area = a
		}
		ips[m.IP.ID] = area
		g := group{m.IP.ID, int(m.Cand.Type), m.Flattened}
		if prev, ok := groups[g]; !ok || m.IfaceArea > prev {
			groups[g] = m.IfaceArea
		}
		d.Gain += m.TotalGain
		d.O += len(m.SC.Sites)
	}
	for _, a := range ips {
		d.Area += a
	}
	for _, a := range groups {
		d.Area += a
	}
	d.S = len(groups)
	return d, nil
}

// verify checks a claim at required gain rg against the constraints and
// against the reference answer want, and returns the re-derived columns
// of a feasible claim. A nil error is a correct answer.
func verify(db *imp.DB, rg int64, ipArea map[string]float64, c claim, want answer) (derived, error) {
	if c.Status != want.Status {
		return derived{}, fmt.Errorf("status %s, want %s", c.Status, want.Status)
	}
	if c.Status != "optimal" {
		if len(c.Chosen) > 0 {
			return derived{}, fmt.Errorf("%s answer chose %d methods", c.Status, len(c.Chosen))
		}
		return derived{}, nil
	}
	d, err := derive(db, c.Chosen, rg, ipArea)
	switch {
	case err != nil:
	case !sameArea(c.Area, d.Area):
		err = fmt.Errorf("reported area %v, but the chosen methods cost %v", c.Area, d.Area)
	case c.Gain != d.Gain:
		err = fmt.Errorf("reported gain %d, but the chosen methods gain %d", c.Gain, d.Gain)
	case !sameArea(d.Area, want.Area):
		err = fmt.Errorf("area %v, want %v", d.Area, want.Area)
	case d.Gain != want.Gain:
		err = fmt.Errorf("gain %d, want %d", d.Gain, want.Gain)
	}
	return d, err
}

// impl names a method's implementation the way the paper's tables do:
// "IP12,IF0".
func impl(m *imp.IMP) string { return m.IP.ID + "," + m.Cand.Type.String() }

// byID resolves method IDs, as a wire result carries them, to db's
// methods. IDs that are unknown or name several methods are errors.
func byID(db *imp.DB, ids []string) ([]*imp.IMP, error) {
	idx := make(map[string]*imp.IMP, len(db.IMPs))
	dup := map[string]bool{}
	for _, m := range db.IMPs {
		if idx[m.ID] != nil {
			dup[m.ID] = true
		}
		idx[m.ID] = m
	}
	out := make([]*imp.IMP, len(ids))
	for i, id := range ids {
		if idx[id] == nil || dup[id] {
			return nil, fmt.Errorf("method ID %q does not name exactly one method", id)
		}
		out[i] = idx[id]
	}
	return out, nil
}
