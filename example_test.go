package copack_test

import (
	"fmt"
	"log"

	"copack"
)

// ExamplePlan runs the paper's two-step flow — DFA assignment, then the
// finger/pad exchange — on the first Table 1 circuit.
func ExamplePlan() {
	p, err := copack.BuildCircuit(copack.Table1Circuits()[0], copack.BuildOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	res, err := copack.Plan(p, copack.Options{SkipExchange: true, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("max density after DFA:", res.InitialStats.MaxDensity)
	fmt.Println("monotonic-routable:", copack.CheckMonotonic(p, res.Assignment) == nil)
	// Output:
	// max density after DFA: 5
	// monotonic-routable: true
}

// ExampleParseDesign loads a complete problem from the design file format.
func ExampleParseDesign() {
	p, err := copack.ParseDesign(`
circuit tiny
net a signal
net v power
net b signal
net c signal
net d signal
net g ground
net e signal
net f signal
package tinypkg
spec ball 0.2 1.2 via 0.1
spec finger 0.1 0.2 0.12
spec rows 2
quadrant bottom
row a -
row v -
quadrant right
row b -
row c -
quadrant top
row d -
row g -
quadrant left
row e -
row f -
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p.Circuit.Name, p.Circuit.NumNets(), "nets")
	// Output:
	// tiny 8 nets
}

// ExampleParseAlgorithm shows the CLI-token mapping.
func ExampleParseAlgorithm() {
	alg, _ := copack.ParseAlgorithm("dfa")
	fmt.Println(alg)
	// Output:
	// dfa
}

// ExampleCheckDesignRules signs a plan off against substrate rules.
func ExampleCheckDesignRules() {
	p, err := copack.BuildCircuit(copack.Table1Circuits()[0], copack.BuildOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	res, err := copack.Plan(p, copack.Options{SkipExchange: true, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := copack.CheckDesignRules(p, res.Assignment)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("clean:", rep.OK())
	// Output:
	// clean: true
}
