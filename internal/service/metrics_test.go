package service

import (
	"strings"
	"testing"
)

// TestPortfolioWinResolvesMicroseconds: a race won 60 µs after it
// started lands in the 100 µs bucket and not in the 50 µs one, so the
// first-answer histogram resolves the capacity engine's wins instead of
// lumping them all under the first millisecond.
func TestPortfolioWinResolvesMicroseconds(t *testing.T) {
	m := NewMetrics()
	m.PortfolioWin("capacity", 60e-6)
	var b strings.Builder
	m.WritePrometheus(&b, Gauges{}, nil)
	text := b.String()
	for _, want := range []string{
		`partitad_portfolio_wins_total{engine="capacity"} 1`,
		`partitad_portfolio_first_acceptable_seconds_bucket{le="5e-05"} 0`,
		`partitad_portfolio_first_acceptable_seconds_bucket{le="0.0001"} 1`,
		`partitad_portfolio_first_acceptable_seconds_count 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
