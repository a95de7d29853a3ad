package faultinject

import (
	"errors"
	"testing"
)

func TestDisarmedFireIsFree(t *testing.T) {
	Reset()
	for i := 0; i < 100; i++ {
		if err := Fire(AnnealPlateau); err != nil {
			t.Fatalf("disarmed Fire returned %v", err)
		}
	}
	if n := Calls(AnnealPlateau); n != 0 {
		t.Errorf("disarmed Fire counted %d calls, want 0", n)
	}
}

func TestFireAtChosenCall(t *testing.T) {
	defer Reset()
	Reset()
	Arm(Fault{Point: PowerIteration, After: 3})
	for i := 1; i <= 5; i++ {
		err := Fire(PowerIteration)
		if i == 3 && !errors.Is(err, ErrInjected) {
			t.Errorf("call %d: got %v, want ErrInjected", i, err)
		}
		if i != 3 && err != nil {
			t.Errorf("call %d: got %v, want nil (one-shot fault)", i, err)
		}
	}
	if n := Calls(PowerIteration); n != 5 {
		t.Errorf("Calls = %d, want 5", n)
	}
}

func TestRepeatAndCustomError(t *testing.T) {
	defer Reset()
	Reset()
	custom := errors.New("boom")
	Arm(Fault{Point: NetlistLine, After: 2, Err: custom, Repeat: true})
	if err := Fire(NetlistLine); err != nil {
		t.Errorf("call 1 fired early: %v", err)
	}
	for i := 2; i <= 4; i++ {
		if err := Fire(NetlistLine); !errors.Is(err, custom) {
			t.Errorf("call %d: got %v, want custom error", i, err)
		}
	}
}

func TestPanicInjection(t *testing.T) {
	defer Reset()
	Reset()
	Arm(Fault{Point: DesignLine, PanicValue: "injected panic"})
	defer func() {
		if r := recover(); r != "injected panic" {
			t.Errorf("recovered %v, want injected panic", r)
		}
	}()
	_ = Fire(DesignLine)
	t.Error("Fire did not panic")
}

func TestPointsAreIndependent(t *testing.T) {
	defer Reset()
	Reset()
	Arm(Fault{Point: AnnealPlateau})
	if err := Fire(RoutePass); err != nil {
		t.Errorf("unarmed point fired: %v", err)
	}
	if err := Fire(AnnealPlateau); err == nil {
		t.Error("armed point did not fire")
	}
}

func TestResetDisarms(t *testing.T) {
	Arm(Fault{Point: PlanStage, Repeat: true})
	Reset()
	if err := Fire(PlanStage); err != nil {
		t.Errorf("Fire after Reset returned %v", err)
	}
}

func TestFleetPointsArePerPeer(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	// Killing one peer must not touch the others, and the three network
	// fault kinds at the same peer must stay independent.
	Arm(Fault{Point: FleetDial("b"), Repeat: true})
	if err := Fire(FleetDial("b")); err == nil {
		t.Fatal("armed peer did not fire")
	}
	if err := Fire(FleetDial("c")); err != nil {
		t.Fatalf("unarmed peer fired: %v", err)
	}
	if err := Fire(FleetLatency("b")); err != nil {
		t.Fatalf("latency point fired off the dial arm: %v", err)
	}
	if err := Fire(FleetTruncate("b")); err != nil {
		t.Fatalf("truncate point fired off the dial arm: %v", err)
	}
	names := map[Point]bool{
		FleetDial("b"): true, FleetLatency("b"): true, FleetTruncate("b"): true,
		FleetDial("c"): true,
	}
	if len(names) != 4 {
		t.Errorf("fleet points collide: %v", names)
	}
}

// Calls returns how many times Fire has run at p since the last Reset
// (0 while disarmed — counting only happens with faults armed).
func Calls(p Point) int {
	mu.Lock()
	defer mu.Unlock()
	return calls[p]
}
