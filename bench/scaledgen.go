package main

import (
	"fmt"
	"math"
	"math/rand"

	"partita/internal/iface"
	"partita/internal/imp"
	"partita/internal/ip"
)

// Per-interface-type gain multipliers and interface areas of the
// synthetic models: buffered types (1, 3) gain more and cost more, the
// hardware controllers (2, 3) save kernel cycles at a higher area.
var (
	typeGain = [iface.NumTypes]float64{1.00, 1.06, 1.03, 1.10}
	typeArea = [iface.NumTypes]float64{0.3, 0.9, 0.7, 1.4}
)

// scaledModel builds one synthetic selection model with nSC s-calls over
// nIP shared IPs. Every s-call has one to four methods spread across the
// four interface types on one or two candidate IPs, and about one method
// in six is a parallel-code method whose code comes from another
// s-call's software body — a Problem-2 conflict source. The model is a
// pure function of its arguments.
func scaledModel(seed int64, nSC, nIP int) (*imp.DB, error) {
	rng := rand.New(rand.NewSource(seed))
	ips := make([]*ip.IP, nIP)
	for k := range ips {
		id := fmt.Sprintf("SIP%02d", k)
		ips[k] = &ip.IP{
			ID: id, Name: id, InPorts: 2, OutPorts: 2, InRate: 4, OutRate: 4,
			Latency: 8, Pipelined: true,
			Area: round1(2 + 18*rng.Float64()),
		}
	}
	funcs := make([]string, nSC)
	var methods []imp.SynthIMP
	for i := range funcs {
		funcs[i] = fmt.Sprintf("kern%02d", i)
		base := 500 * math.Exp(rng.Float64()*math.Log(100)) // 500 .. 50 000 cycles
		cands := []*ip.IP{ips[rng.Intn(nIP)]}
		if rng.Intn(2) == 0 {
			cands = append(cands, ips[rng.Intn(nIP)])
		}
		// Draw distinct (IP, interface) pairs for the s-call's methods.
		var pairs [][2]int
		for c := range cands {
			for t := 0; t < int(iface.NumTypes); t++ {
				pairs = append(pairs, [2]int{c, t})
			}
		}
		rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
		for _, pr := range pairs[:1+rng.Intn(4)] {
			blk, t := cands[pr[0]], iface.Type(pr[1])
			s := imp.SynthIMP{
				SC:        i + 1,
				IP:        blk,
				Type:      t,
				Gain:      int64(base * typeGain[t] * (0.9 + 0.2*rng.Float64())),
				IfaceArea: round1(typeArea[t] * (0.8 + 0.4*rng.Float64())),
			}
			if t.SupportsParallel() && nSC > 1 && rng.Intn(3) == 0 {
				other := rng.Intn(nSC - 1)
				if other >= i {
					other++
				}
				s.UsesPC = true
				s.PCOf = []int{other + 1}
				s.Gain = s.Gain * 115 / 100
				s.IfaceArea = round1(s.IfaceArea + 0.5)
			}
			methods = append(methods, s)
		}
	}
	for k, blk := range ips {
		blk.Funcs = funcsOf(methods, funcs, ips[k])
	}
	return imp.NewSyntheticDB(funcs, methods)
}

// funcsOf lists the s-call functions blk implements in methods.
func funcsOf(methods []imp.SynthIMP, funcs []string, blk *ip.IP) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range methods {
		if f := funcs[m.SC-1]; m.IP == blk && !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

func round1(v float64) float64 { return math.Round(v*10) / 10 }
