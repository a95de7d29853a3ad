// End-to-end lockdown of the five examples: each subtest replays the exact
// pipeline its example runs (same instance, same seeds, same steps) and
// pins the assignment hash plus every headline metric the example prints —
// floats by their exact bit patterns. The examples are the repo's public
// contract: if any of these pins move, a change altered observable results
// and must either be reverted or justified in the commit that re-pins.
package copack_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"copack"
	"copack/internal/bga"
	"copack/internal/netlist"
)

// assignmentHash is the golden-test digest: FNV-64a over the slot IDs in
// side order.
func assignmentHash(a *copack.Assignment) uint64 {
	h := fnv.New64a()
	for _, side := range bga.Sides() {
		for _, id := range a.Slots[side] {
			fmt.Fprintf(h, "%d,", id)
		}
		fmt.Fprint(h, ";")
	}
	return h.Sum64()
}

func f64(v float64) string { return fmt.Sprintf("%#016x", math.Float64bits(v)) }
func u64(v uint64) string  { return fmt.Sprintf("%#016x", v) }

// checkPins compares got against want and, on any mismatch, dumps got as a
// paste-ready Go literal so re-pinning after an intentional change is a
// copy-paste.
func checkPins(t *testing.T, got, want map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := false
	for _, k := range keys {
		if got[k] != want[k] {
			bad = true
			t.Errorf("%s = %s, pinned %s", k, got[k], want[k])
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			bad = true
			t.Errorf("pinned key %s not produced", k)
		}
	}
	if bad {
		var sb strings.Builder
		sb.WriteString("map[string]string{\n")
		for _, k := range keys {
			fmt.Fprintf(&sb, "\t%q: %q,\n", k, got[k])
		}
		sb.WriteString("}")
		t.Logf("current values:\n%s", sb.String())
	}
}

func TestExamplesLockdown(t *testing.T) {
	t.Run("quickstart", func(t *testing.T) {
		p, err := copack.BuildCircuit(copack.Table1Circuits()[0], copack.BuildOptions{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		baseline, err := copack.Plan(p, copack.Options{
			Algorithm: copack.RandomAssign, SkipExchange: true, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := copack.Plan(p, copack.Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if err := copack.CheckMonotonic(p, res.Assignment); err != nil {
			t.Fatalf("final order not monotonic: %v", err)
		}
		checkPins(t, map[string]string{
			"assignment_hash":  u64(assignmentHash(res.Assignment)),
			"baseline_density": fmt.Sprint(baseline.InitialStats.MaxDensity),
			"baseline_wirelen": f64(baseline.InitialStats.Wirelength),
			"dfa_density":      fmt.Sprint(res.InitialStats.MaxDensity),
			"dfa_wirelen":      f64(res.InitialStats.Wirelength),
			"final_density":    fmt.Sprint(res.FinalStats.MaxDensity),
			"final_wirelen":    f64(res.FinalStats.Wirelength),
			"ir_drop_baseline": f64(baseline.IRDropBefore),
			"ir_drop_before":   f64(res.IRDropBefore),
			"ir_drop_after":    f64(res.IRDropAfter),
		}, map[string]string{
			"assignment_hash":  "0x39788481cb52c2cb",
			"baseline_density": "11",
			"baseline_wirelen": "0x408ee6c3a19f7178",
			"dfa_density":      "5",
			"dfa_wirelen":      "0x408ed44a6799b5d2",
			"final_density":    "5",
			"final_wirelen":    "0x408ed54375e3f0f6",
			"ir_drop_after":    "0x3f9225284e19a3a0",
			"ir_drop_baseline": "0x3f92e7feea7e5940",
			"ir_drop_before":   "0x3f931f7b9b8f4000",
		})
	})

	t.Run("customcircuit", func(t *testing.T) {
		const circuitText = `
circuit demochip
net d0 signal
net d1 signal
net d2 signal
net d3 signal
net vdd0 power
net gnd0 ground
net d4 signal
net d5 signal
net d6 signal
net d7 signal
net vdd1 power
net gnd1 ground
net clk signal
net rst signal
net irq signal
net ack signal
net vdd2 power
net gnd2 ground
net a0 signal
net a1 signal
net a2 signal
net a3 signal
net vdd3 power
net gnd3 ground
`
		c, err := copack.ParseCircuit(circuitText)
		if err != nil {
			t.Fatal(err)
		}
		id := func(name string) netlist.ID {
			v, ok := c.ByName(name)
			if !ok {
				t.Fatalf("no net %q", name)
			}
			return v
		}
		row := func(names ...string) bga.Row {
			nets := make([]netlist.ID, 0, len(names)+1)
			for _, n := range names {
				nets = append(nets, id(n))
			}
			return bga.Row{Nets: append(nets, bga.NoNet)}
		}
		mkQuad := func(side bga.Side, top, bottom bga.Row) *bga.Quadrant {
			q, err := bga.NewQuadrant(side, []bga.Row{top, bottom})
			if err != nil {
				t.Fatal(err)
			}
			return q
		}
		quads := [bga.NumSides]*bga.Quadrant{
			bga.Bottom: mkQuad(bga.Bottom, row("vdd0", "d1", "d3"), row("d0", "gnd0", "d2")),
			bga.Right:  mkQuad(bga.Right, row("d5", "vdd1", "d7"), row("d4", "d6", "gnd1")),
			bga.Top:    mkQuad(bga.Top, row("clk", "irq", "vdd2"), row("rst", "gnd2", "ack")),
			bga.Left:   mkQuad(bga.Left, row("a1", "gnd3", "a3"), row("a0", "a2", "vdd3")),
		}
		spec := bga.Spec{
			Name:         "demochip",
			BallDiameter: 0.2, BallSpace: 1.2, ViaDiameter: 0.1,
			FingerWidth: 0.1, FingerHeight: 0.2, FingerSpace: 0.12,
			Rows: 2,
		}
		pkg, err := bga.NewPackage(spec, quads)
		if err != nil {
			t.Fatal(err)
		}
		p, err := copack.NewProblem(c, pkg, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := copack.Plan(p, copack.Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		checkPins(t, map[string]string{
			"assignment_hash": u64(assignmentHash(res.Assignment)),
			"final_density":   fmt.Sprint(res.FinalStats.MaxDensity),
			"final_wirelen":   f64(res.FinalStats.Wirelength),
			"ir_drop_before":  f64(res.IRDropBefore),
			"ir_drop_after":   f64(res.IRDropAfter),
		}, map[string]string{
			"assignment_hash": "0x7a1cf12db7ff0be7",
			"final_density":   "1",
			"final_wirelen":   "0x405950db7b1a87e8",
			"ir_drop_after":   "0x3fb19b7568704850",
			"ir_drop_before":  "0x3fb19b7568704850",
		})
	})

	t.Run("designflow", func(t *testing.T) {
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
		p, err := copack.ParseDesign(designText)
		if err != nil {
			t.Fatal(err)
		}
		res, err := copack.Plan(p, copack.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := copack.CheckDesignRules(p, res.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		_, improved, err := copack.ImproveVias(p, res.Assignment, 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := copack.ParseDesign(copack.FormatDesign(p)); err != nil {
			t.Fatalf("design file does not round-trip: %v", err)
		}
		checkPins(t, map[string]string{
			"assignment_hash":  u64(assignmentHash(res.Assignment)),
			"final_density":    fmt.Sprint(res.FinalStats.MaxDensity),
			"final_wirelen":    f64(res.FinalStats.Wirelength),
			"ir_drop_before":   f64(res.IRDropBefore),
			"ir_drop_after":    f64(res.IRDropAfter),
			"drc_ok":           fmt.Sprint(rep.OK()),
			"improved_density": fmt.Sprint(improved.MaxDensity),
		}, map[string]string{
			"assignment_hash":  "0x40273a852bc84faf",
			"drc_ok":           "true",
			"final_density":    "2",
			"final_wirelen":    "0x405a860e59cb2d48",
			"improved_density": "2",
			"ir_drop_after":    "0x3fb9a42d02af5370",
			"ir_drop_before":   "0x3fb9a42d02af5370",
		})
	})

	t.Run("irdropmap", func(t *testing.T) {
		p, err := copack.BuildCircuit(copack.Table1Circuits()[1], copack.BuildOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		grid := copack.DefaultChipGrid(p)
		got := map[string]string{}
		for _, plan := range []struct {
			name string
			opt  copack.Options
		}{
			{"random", copack.Options{Algorithm: copack.RandomAssign, SkipExchange: true, Seed: 3}},
			{"dfa", copack.Options{SkipExchange: true, Seed: 3}},
			{"exchanged", copack.Options{Seed: 3}},
		} {
			res, err := copack.Plan(p, plan.opt)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := copack.SolveIRDrop(p, res.Assignment, grid)
			if err != nil {
				t.Fatal(err)
			}
			got[plan.name+"_hash"] = u64(assignmentHash(res.Assignment))
			got[plan.name+"_max_drop"] = f64(sol.MaxDrop())
			got[plan.name+"_avg_drop"] = f64(sol.AvgDrop())
			got[plan.name+"_iterations"] = fmt.Sprint(sol.Iterations)
		}
		checkPins(t, got, map[string]string{
			"dfa_avg_drop":         "0x3f835357e96b30fb",
			"dfa_hash":             "0x8fe985adcc3dc10d",
			"dfa_iterations":       "8",
			"dfa_max_drop":         "0x3f90f27c4de0be20",
			"exchanged_avg_drop":   "0x3f80e724b63ed899",
			"exchanged_hash":       "0xbf3b0648f4ed3743",
			"exchanged_iterations": "7",
			"exchanged_max_drop":   "0x3f8f65134ebb64c0",
			"random_avg_drop":      "0x3f835b4c5338d159",
			"random_hash":          "0x2e0ff5bfb2cb5775",
			"random_iterations":    "8",
			"random_max_drop":      "0x3f90e5254530d380",
		})
	})

	t.Run("stacking", func(t *testing.T) {
		p, err := copack.BuildCircuit(copack.Table1Circuits()[2], copack.BuildOptions{Seed: 7, Tiers: 4})
		if err != nil {
			t.Fatal(err)
		}
		bond := copack.DefaultBondSpec(p)
		dfaOnly, err := copack.Plan(p, copack.Options{Seed: 7, SkipExchange: true})
		if err != nil {
			t.Fatal(err)
		}
		full, err := copack.Plan(p, copack.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := copack.CheckMonotonic(p, full.Assignment); err != nil {
			t.Fatalf("final order not monotonic: %v", err)
		}
		checkPins(t, map[string]string{
			"assignment_hash": u64(assignmentHash(full.Assignment)),
			"omega_before":    fmt.Sprint(full.OmegaBefore),
			"omega_after":     fmt.Sprint(full.OmegaAfter),
			"bond_len_before": f64(copack.TotalBondLength(p, dfaOnly.Assignment, bond)),
			"bond_len_after":  f64(copack.TotalBondLength(p, full.Assignment, bond)),
			"dfa_density":     fmt.Sprint(dfaOnly.InitialStats.MaxDensity),
			"final_density":   fmt.Sprint(full.FinalStats.MaxDensity),
		}, map[string]string{
			"assignment_hash": "0x7863b57a10c3b3b3",
			"bond_len_after":  "0x40a48227b1231a57",
			"bond_len_before": "0x40a4822d94fd8a62",
			"dfa_density":     "4",
			"final_density":   "8",
			"omega_after":     "23",
			"omega_before":    "71",
		})
	})
}
