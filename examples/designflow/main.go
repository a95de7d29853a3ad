// Design flow: the full tool loop a package engineer would run — load a
// design file (netlist + package + ball map), plan it, check design rules,
// squeeze the last density unit out with via improvement, and save the
// design back.
//
//	go run ./examples/designflow
package main

import (
	"fmt"
	"log"
	"strings"

	"copack"
)

// A hand-written design: 24 nets on a 2-line-per-side package. In a real
// flow this text comes from the chip and board teams as a .copack file.
const designText = `
circuit uart_bridge
net txd signal
net rxd signal
net rts signal
net cts signal
net vdd_io power
net vss_io ground
net d0 signal
net d1 signal
net d2 signal
net d3 signal
net vdd_core power
net vss_core ground
net a0 signal
net a1 signal
net a2 signal
net a3 signal
net clk signal
net rst signal
net irq signal
net scl signal
net sda signal
net en signal
net vdd_pll power
net vss_pll ground

package uart_pkg
spec ball 0.2 1.2 via 0.1
spec finger 0.1 0.2 0.12
spec rows 2
tiers 1
quadrant bottom
row txd rxd -
row rts cts vdd_io -
quadrant right
row vss_io d0 -
row d1 d2 d3 -
quadrant top
row vdd_core vss_core -
row a0 a1 a2 -
quadrant left
row a3 clk rst -
row irq scl sda en vdd_pll vss_pll -
`

func main() {
	p, err := copack.ParseDesign(designText)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s: %d nets\n", p.Circuit.Name, p.Circuit.NumNets())

	// Plan: DFA + exchange.
	res, err := copack.Plan(p, copack.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned: max density %d, wirelength %.1f µm, IR-drop %.2f -> %.2f mV\n",
		res.FinalStats.MaxDensity, res.FinalStats.Wirelength,
		res.IRDropBefore*1000, res.IRDropAfter*1000)

	// Sign off against the substrate design rules.
	rep, err := copack.CheckDesignRules(p, res.Assignment)
	if err != nil {
		log.Fatal(err)
	}
	if rep.OK() {
		fmt.Printf("DRC clean: every via-line gap fits its wires (capacity %d per gap)\n", rep.SegmentCapacity)
	} else {
		fmt.Printf("DRC: %d violations\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Println("  ", v)
		}
	}

	// Optional: the Kubo–Takahashi-style via improvement pass.
	_, improved, err := copack.ImproveVias(p, res.Assignment, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("via improvement: density %d -> %d\n", res.FinalStats.MaxDensity, improved.MaxDensity)

	// The design file round-trips, so downstream tools see the same
	// problem.
	text := copack.FormatDesign(p)
	if _, err := copack.ParseDesign(text); err != nil {
		log.Fatal("round trip broke: ", err)
	}
	fmt.Printf("design file round-trips (%d lines)\n", strings.Count(text, "\n"))
}
