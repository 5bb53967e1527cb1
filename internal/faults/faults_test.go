package faults

import (
	"strings"
	"testing"
	"time"
)

func TestNilInjectorIsDisabled(t *testing.T) {
	var i *Injector
	if i.Enabled() {
		t.Fatal("nil injector must be disabled")
	}
	if i.Fire(WorkerPanic) {
		t.Fatal("nil injector must never fire")
	}
	if err := i.Err(JournalWrite); err != nil {
		t.Fatalf("nil injector Err = %v", err)
	}
	if d := i.Duration(SolverStallDelay, 7*time.Millisecond); d != 7*time.Millisecond {
		t.Fatalf("nil injector Duration = %v", d)
	}
	if got := i.Counts(); got != nil {
		t.Fatalf("nil injector Counts = %v", got)
	}
	if got := i.Points(); got != nil {
		t.Fatalf("nil injector Points = %v", got)
	}
	i.Now() // must not panic
}

func TestParseEmptyDisables(t *testing.T) {
	for _, spec := range []string{"", "  ", "off", "0"} {
		i, err := Parse(spec)
		if err != nil || i != nil {
			t.Errorf("Parse(%q) = %v, %v; want nil, nil", spec, i, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"worker.panic",          // no value
		"=0.5",                  // no key
		"seed=abc",              // bad seed
		"seed=1.5",              // fractional seed
		"worker.panic=1.5",      // probability out of range
		"worker.panic=-0.1",     // negative probability
		"worker.panic=potato",   // neither probability nor duration
		"clock.skew=-5s",        // negative duration
		"peer.timeout.delay=5x", // bad duration unit
		"a=0.1,b",               // malformed entry after a valid one
		"worker.panic==0.5",     // doubled separator ("=0.5" is not a value)
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

// Unknown point names are not a parse error: injection points are
// caller-defined strings, so a spec may configure points this build
// never consults. They parse, count as configured, and simply never
// fire unless something asks for them by name. A retired point name
// (remote.point.5xx belonged to the removed batch fan-out) is one such
// name: it stays listed in Points, which partitad prints in its
// startup fault-injection banner, so a stale spec is visible there.
func TestParseUnknownPointNames(t *testing.T) {
	i, err := Parse("seed=9,no.such.point=1,future.fault=0.5,future.fault.delay=10ms,remote.point.5xx=1")
	if err != nil {
		t.Fatalf("Parse rejected unknown point names: %v", err)
	}
	pts := i.Points()
	if len(pts) != 4 {
		t.Fatalf("Points = %v, want 4 configured points", pts)
	}
	if !strings.Contains(strings.Join(pts, ","), "remote.point.5xx") {
		t.Errorf("retired point name missing from Points: %v", pts)
	}
	if !i.Fire("no.such.point") {
		t.Error("configured probability-1 point did not fire, even though its name is unknown to the service")
	}
	if i.Fire(WorkerPanic) {
		t.Error("point absent from the spec fired")
	}
	if d := i.Duration("future.fault.delay", time.Second); d != 10*time.Millisecond {
		t.Errorf("unknown duration point = %v, want 10ms", d)
	}
}

func TestFromEnvPrecedence(t *testing.T) {
	// Flag set: the flag wins even when the environment disagrees.
	t.Setenv(EnvVar, "seed=5,env.only=1")
	i, err := FromFlagOrEnv("seed=2,flag.only=1")
	if err != nil {
		t.Fatal(err)
	}
	if pts := i.Points(); len(pts) != 1 || pts[0] != "flag.only" {
		t.Errorf("flag spec did not win over env: points = %v", pts)
	}

	// Empty flag: fall back to the environment.
	i, err = FromFlagOrEnv("")
	if err != nil {
		t.Fatal(err)
	}
	if pts := i.Points(); len(pts) != 1 || pts[0] != "env.only" {
		t.Errorf("env fallback points = %v", pts)
	}

	// Explicit "off" flag disables injection without consulting the env.
	i, err = FromFlagOrEnv("off")
	if err != nil || i.Enabled() {
		t.Errorf("FromFlagOrEnv(off) = %v, %v; want disabled", i, err)
	}

	// Malformed env spec surfaces the error instead of silently running
	// without faults.
	t.Setenv(EnvVar, "worker.panic=2.0")
	if _, err := FromFlagOrEnv(""); err == nil {
		t.Error("malformed env spec accepted")
	}

	// Nothing configured anywhere: disabled, no error.
	t.Setenv(EnvVar, "")
	i, err = FromFlagOrEnv("")
	if err != nil || i.Enabled() {
		t.Errorf("empty flag+env = %v, %v; want disabled", i, err)
	}
}

func TestDeterministicPerPointStreams(t *testing.T) {
	roll := func(order []string) map[string][]bool {
		i, err := Parse("seed=42,a=0.5,b=0.5")
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]bool{}
		for n := 0; n < 64; n++ {
			for _, p := range order {
				out[p] = append(out[p], i.Fire(p))
			}
		}
		return out
	}
	fwd := roll([]string{"a", "b"})
	rev := roll([]string{"b", "a"})
	for _, p := range []string{"a", "b"} {
		for n := range fwd[p] {
			if fwd[p][n] != rev[p][n] {
				t.Fatalf("point %s roll %d differs with consult order", p, n)
			}
		}
	}
	// A different seed must change at least one outcome.
	other, err := Parse("seed=43,a=0.5,b=0.5")
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for n := 0; n < 64; n++ {
		if other.Fire("a") != fwd["a"][n] {
			same = false
		}
	}
	if same {
		t.Error("seed change did not alter the firing sequence")
	}
}

func TestProbabilityExtremesAndCounts(t *testing.T) {
	i, err := Parse("seed=7,always=1,never=0")
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 100; n++ {
		if !i.Fire("always") {
			t.Fatal("probability-1 point did not fire")
		}
		if i.Fire("never") {
			t.Fatal("probability-0 point fired")
		}
		if i.Fire("unconfigured") {
			t.Fatal("unconfigured point fired")
		}
	}
	counts := i.Counts()
	if counts["always"] != 100 {
		t.Errorf("counts[always] = %d, want 100", counts["always"])
	}
	if counts["never"] != 0 || counts["unconfigured"] != 0 {
		t.Errorf("unexpected counts: %v", counts)
	}
}

func TestDurationsAndClockSkew(t *testing.T) {
	i, err := Parse("seed=1,solver.stall.delay=40ms,clock.skew=2s")
	if err != nil {
		t.Fatal(err)
	}
	if d := i.Duration(SolverStallDelay, time.Millisecond); d != 40*time.Millisecond {
		t.Errorf("stall delay = %v", d)
	}
	if d := i.Duration("missing", 9*time.Second); d != 9*time.Second {
		t.Errorf("default duration = %v", d)
	}
	skewed := i.Now()
	diff := time.Until(skewed)
	if diff < time.Second || diff > 3*time.Second {
		t.Errorf("Now skew = %v, want ~2s", diff)
	}
}

func TestErrNamesThePoint(t *testing.T) {
	i, err := Parse("journal.write=1")
	if err != nil {
		t.Fatal(err)
	}
	werr := i.Err(JournalWrite)
	if werr == nil || !strings.Contains(werr.Error(), JournalWrite) {
		t.Fatalf("Err = %v", werr)
	}
}

func TestPointsSortedAndSpecRoundTrip(t *testing.T) {
	const spec = "seed=3,b=0.1,a=0.2"
	i, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	pts := i.Points()
	if len(pts) != 2 || pts[0] != "a" || pts[1] != "b" {
		t.Errorf("Points = %v", pts)
	}
	if i.Spec() != spec {
		t.Errorf("Spec = %q", i.Spec())
	}
}
