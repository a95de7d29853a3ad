package exp

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// The harness only changes wall clock: Table 2 must come back byte-identical
// to the classic sequential run for every worker count.
func TestTable2WithDeterministicAcrossWorkers(t *testing.T) {
	classic, err := Table2(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		res, err := Table2With(3, 5, Harness{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, classic) {
			t.Errorf("workers=%d: Table2With differs from Table2:\n%s\nvs\n%s",
				workers, res.Format(), classic.Format())
		}
	}
}

// Same contract for Table 3's ten (ψ, circuit) instances.
func TestTable3WithDeterministicAcrossWorkers(t *testing.T) {
	ref, err := Table3With(2, Harness{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Table3With(2, Harness{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("Table3With differs between workers 1 and 4:\n%s\nvs\n%s",
			res.Format(), ref.Format())
	}
}

// A parallel sweep emits one progress line per seed and aggregates exactly
// like the sequential sweep.
func TestSweepTable2WithProgressAndDeterminism(t *testing.T) {
	seeds := Seeds(3)
	classic, err := SweepTable2(seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	res, err := SweepTable2With(seeds, 4, Harness{
		Workers:  2,
		Progress: func(line string) { lines = append(lines, line) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, classic) {
		t.Errorf("parallel sweep differs from sequential:\n%s\nvs\n%s", res.Format(), classic.Format())
	}
	if len(lines) != len(seeds) {
		t.Fatalf("got %d progress lines, want %d: %q", len(lines), len(seeds), lines)
	}
	for _, line := range lines {
		if !strings.Contains(line, "sweep seed") {
			t.Errorf("unexpected progress line %q", line)
		}
	}
}

// Regression: a cancelled sweep must still flush the progress stream — the
// last line reports how many seeds completed before the stop, so consumers
// tailing the stream never see it end silently mid-sweep.
func TestSweepContextCancelledFlushesProgress(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var lines []string
	h := Harness{Workers: 2, Progress: func(line string) { lines = append(lines, line) }}
	if _, err := SweepTable2Context(ctx, Seeds(3), 2, h); err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	if len(lines) == 0 {
		t.Fatal("cancelled sweep emitted no progress at all")
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, "sweep stopped") || !strings.Contains(last, "/3 seeds done") {
		t.Errorf("final progress tick %q does not report the stop with the completed count", last)
	}

	lines = nil
	if _, err := SweepTable3Context(ctx, Seeds(2), h); err == nil {
		t.Fatal("cancelled sweep3 returned nil error")
	}
	if len(lines) == 0 {
		t.Fatal("cancelled sweep3 emitted no progress at all")
	}
	last = lines[len(lines)-1]
	if !strings.Contains(last, "sweep3 stopped") || !strings.Contains(last, "/2 seeds done") {
		t.Errorf("final progress tick %q does not report the stop with the completed count", last)
	}
}

// An uncancelled Context sweep equals the classic sweep bit for bit.
func TestSweepTable3ContextMatchesWith(t *testing.T) {
	seeds := Seeds(2)
	ref, err := SweepTable3With(seeds, Harness{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SweepTable3Context(context.Background(), seeds, Harness{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Error("SweepTable3Context differs from SweepTable3With")
	}
}
