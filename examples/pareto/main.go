// Design-space exploration: sweep the required gain across the GSM
// encoder's reachable range, extract the area/gain Pareto frontier, and
// emit the generated hardware (C-instructions, encoded image, interface
// RTL) for one chosen point — the complete back end of the Partita flow.
//
// Run with: go run ./examples/pareto
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"partita"
	"partita/internal/apps"
)

func main() {
	w, err := apps.GSMEncoderWorkload()
	if err != nil {
		log.Fatal(err)
	}
	design, err := partita.Analyze(w.Source, w.Root, w.Catalog, partita.Options{
		DataCount: w.DataCount,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Drive the lazy shared-analysis pipeline directly instead of the
	// eager Sweep adapter: the program is analyzed once, points whose
	// answer follows from a looser point complete without any search,
	// and only the rest are solved.
	const n = 12
	gains := make([]int64, n)
	for i := 1; i <= n; i++ {
		gains[i-1] = design.MaxReachableGain() * int64(i) / n
	}
	pl := design.NewSweepPipeline(gains, partita.Budget{}, nil)
	points := make([]partita.SweepPoint, 0, pl.Len())
	for {
		pt, ok, err := pl.Next(context.Background())
		if !ok {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		points = append(points, partita.SweepPoint{Required: pt.Required, Sel: pt.Sel})
	}
	st := pl.Stats()
	fmt.Printf("sweep pipeline: %d points, %d solved, %d reused\n\n",
		pl.Len(), st.Solved, st.Reused)
	front := partita.ParetoFront(points)

	fmt.Println("area/gain Pareto frontier (GSM encoder):")
	fmt.Printf("%-10s %-8s %-8s %s\n", "RG", "gain", "area", "")
	var maxGain int64
	for _, p := range front {
		if p.Sel.Gain > maxGain {
			maxGain = p.Sel.Gain
		}
	}
	for _, p := range front {
		bar := strings.Repeat("█", int(p.Sel.Gain*40/maxGain))
		fmt.Printf("%-10d %-8d %-8.1f %s\n", p.Required, p.Sel.Gain, p.Sel.Area, bar)
	}

	// Pick the knee-ish mid point and run the back end on it.
	chosen := front[len(front)/2]
	fmt.Printf("\nback end for RG=%d (gain %d, area %.1f):\n",
		chosen.Required, chosen.Sel.Gain, chosen.Sel.Area)

	stats, _, err := design.Profile(w.Entry)
	if err != nil {
		log.Fatal(err)
	}
	cres := design.GenerateCInstructions(stats)
	fmt.Printf("  C-instructions: %d (code %d → %d words, fetches %d → %d)\n",
		len(cres.Chosen), cres.CodeWordsBefore, cres.CodeWordsAfter,
		cres.FetchesBefore, cres.FetchesAfter)

	im, err := design.Encode(cres, chosen.Sel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  encoded image: %d instructions, µ-ROM %d/%d unique words (compression %.2f)\n",
		len(im.Stream), im.UniqueWords, im.TotalWords, im.Compression())

	rtl := design.GenerateRTL(chosen.Sel, im)
	modules := strings.Count(rtl, "endmodule")
	fmt.Printf("  generated RTL: %d modules, %d lines\n", modules, strings.Count(rtl, "\n"))
	// Show the first module header lines as a taste.
	for _, line := range strings.Split(rtl, "\n") {
		if strings.HasPrefix(line, "module ") {
			fmt.Printf("    %s\n", line)
		}
	}
}
