package fault

import (
	"errors"
	"testing"
)

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"", ";seed=1", "spill.write", "spill.write:2.0", "spill.write:-1",
		"spill.write:0", "spill.write:abc", "spill.write:0.1;tilt=3", "spill.write:0.1;seed=x",
		"spill.write:1@0", "spill.write:1@x", "spill.write:0.5@3",
	} {
		if _, err := New(spec); err == nil {
			t.Errorf("New(%q) succeeded, want error", spec)
		}
	}
}

func TestCountingRuleFailsFirstN(t *testing.T) {
	inj, err := New("spill.write:2")
	if err != nil {
		t.Fatal(err)
	}
	defer Set(inj)()
	if err := Failure("spill.write"); !errors.Is(err, ErrInjected) {
		t.Fatalf("call 1: %v, want injected", err)
	}
	if err := Failure("spill.write"); !errors.Is(err, ErrInjected) {
		t.Fatalf("call 2: %v, want injected", err)
	}
	for i := 3; i < 10; i++ {
		if err := Failure("spill.write"); err != nil {
			t.Fatalf("call %d: %v, want nil", i, err)
		}
	}
	// Unconfigured points never fire.
	if Should("mem.grow") {
		t.Fatal("unconfigured point fired")
	}
}

// TestCountingRuleFromCallK: N@K fails calls K..K+N-1, and Calls counts
// every consultation, fired or not.
func TestCountingRuleFromCallK(t *testing.T) {
	inj, err := New("spill.write:2@4")
	if err != nil {
		t.Fatal(err)
	}
	defer Set(inj)()
	for i := 1; i < 10; i++ {
		if got, want := Should("spill.write"), i == 4 || i == 5; got != want {
			t.Fatalf("call %d fired=%v, want %v", i, got, want)
		}
	}
	if n := inj.Calls("spill.write"); n != 9 {
		t.Fatalf("Calls = %d, want 9", n)
	}
	if n := inj.Calls("mem.grow"); n != 0 {
		t.Fatalf("Calls of an unconfigured point = %d, want 0", n)
	}
}

func TestProbabilisticRuleIsDeterministic(t *testing.T) {
	run := func() []bool {
		inj, err := New("mem.grow:0.3;seed=42")
		if err != nil {
			t.Fatal(err)
		}
		defer Set(inj)()
		out := make([]bool, 200)
		for i := range out {
			out[i] = Should("mem.grow")
		}
		return out
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d differs across identical specs", i)
		}
		if a[i] {
			fired++
		}
	}
	// 200 draws at p=0.3: the count must be in a broad sanity band.
	if fired < 20 || fired > 120 {
		t.Fatalf("fired %d/200 at p=0.3", fired)
	}
	// A different seed produces a different sequence.
	inj, _ := New("mem.grow:0.3;seed=43")
	defer Set(inj)()
	same := true
	for i := range a {
		if Should("mem.grow") != a[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seed change did not change the failure sequence")
	}
}

func TestDisarmed(t *testing.T) {
	defer Set(nil)()
	if Enabled() || Should("spill.write") || Failure("spill.read") != nil {
		t.Fatal("disarmed injector fired")
	}
}

func TestSetRestores(t *testing.T) {
	inj, _ := New("spill.read:1")
	restore := Set(inj)
	if !Enabled() {
		t.Fatal("Set did not arm")
	}
	restore()
	if Should("spill.read") {
		t.Fatal("restore did not disarm")
	}
}
