package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"

	"partita/internal/selector"
)

// refsJSON holds the frozen reference answers (status, area, gain) of
// the scaled instances, the explore pool's sweep points, and the service
// grids, keyed by instance. -regen produces it with serial solves.
//
//go:embed testdata/refs.json
var refsJSON []byte

func loadRefs() (map[string]answer, error) {
	var refs map[string]answer
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference answers: %w", err)
	}
	return refs, nil
}

// refSolver records under key the serial answer of solving an at the
// required gain rg. ipArea names the IP areas an's edits replaced (nil
// when unedited), so the oracle can price the answer.
type refSolver func(key string, an *selector.Analysis, rg int64, ipArea map[string]float64) error

// regenRefs solves every frozen instance serially and writes the
// answers to path. It refuses to overwrite an entry whose answer
// changed: it prints each difference and writes nothing.
func regenRefs(path string) error {
	fresh := map[string]answer{}
	solve := func(key string, an *selector.Analysis, rg int64, ipArea map[string]float64) error {
		sel, err := an.Solve(context.Background(), selector.Problem{Required: rg})
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		a := answer{Status: status(sel)}
		if a.Status == "optimal" {
			// The serial answer must itself pass the oracle's constraints.
			d, err := derive(an.DB(), sel.Chosen, rg, ipArea)
			if err != nil {
				return fmt.Errorf("%s: serial answer fails the oracle: %w", key, err)
			}
			a.Area, a.Gain = d.Area, d.Gain
		}
		fresh[key] = a
		return nil
	}
	for _, gen := range []func(refSolver) error{scaledRefs, exploreRefs, serviceRefs} {
		if err := gen(solve); err != nil {
			return err
		}
	}

	old := map[string]answer{}
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(raw, &old); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	var changed []string
	for key, was := range old {
		now, ok := fresh[key]
		if ok && (now.Status != was.Status || !sameArea(now.Area, was.Area) || now.Gain != was.Gain) {
			changed = append(changed, fmt.Sprintf("%s: %+v -> %+v", key, was, now))
		}
	}
	if len(changed) > 0 {
		sort.Strings(changed)
		for _, c := range changed {
			fmt.Fprintln(os.Stderr, "changed", c)
		}
		return fmt.Errorf("%d reference answers changed; %s left as it was", len(changed), path)
	}
	out, err := json.MarshalIndent(fresh, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %d reference answers to %s (%d before)\n", len(fresh), path, len(old))
	return nil
}
