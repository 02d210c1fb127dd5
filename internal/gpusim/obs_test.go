package gpusim

import (
	"testing"

	"dsenergy/internal/obs"
)

func TestNewErrorPathReachableWithoutCrash(t *testing.T) {
	// Library code must return construction errors, never panic (the old
	// MustNew escape hatch is gone).
	bad := V100Spec()
	bad.NumCU = 0
	if _, err := New(bad, 1); err == nil {
		t.Fatal("invalid spec must be rejected with an error")
	}
}

func TestDeviceObserverCounters(t *testing.T) {
	o := obs.NewObserver()
	d := mustNew(t, V100Spec(), 1)
	d.SetObserver(o)
	p := computeBound()

	if _, err := d.Run(p); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunAt(p, 1297); err != nil {
		t.Fatal(err)
	}
	launches := o.Metrics().Counter("gpusim_kernel_launches_total", obs.L("device", d.Spec().Name))
	if got := launches.Value(); got != 2 {
		t.Fatalf("launch counter = %d, want 2", got)
	}

	dvfs := o.Metrics().Counter("gpusim_dvfs_transitions_total", obs.L("device", d.Spec().Name))
	fmax := d.Spec().FMaxMHz()
	if err := d.SetCoreFreqMHz(fmax); err != nil {
		t.Fatal(err)
	}
	if err := d.SetCoreFreqMHz(fmax); err != nil { // no-op re-set: not a transition
		t.Fatal(err)
	}
	d.ResetCoreFreq()
	d.ResetCoreFreq() // already at baseline: not a transition
	if got := dvfs.Value(); got != 2 {
		t.Fatalf("dvfs counter = %d, want 2 (set + reset)", got)
	}
}

func TestForkSharesObserverHandles(t *testing.T) {
	o := obs.NewObserver()
	d := mustNew(t, V100Spec(), 1)
	d.SetObserver(o)
	p := computeBound()
	child := d.Fork()
	if _, err := child.Run(p); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(p); err != nil {
		t.Fatal(err)
	}
	launches := o.Metrics().Counter("gpusim_kernel_launches_total", obs.L("device", d.Spec().Name))
	if got := launches.Value(); got != 2 {
		t.Fatalf("fork must share the parent's launch counter: got %d, want 2", got)
	}
}

func TestObserverDoesNotPerturbResults(t *testing.T) {
	// The core determinism contract at the device level: identical seeds
	// with and without an observer produce bit-identical observations.
	plain := mustNew(t, V100Spec(), 9)
	observed := mustNew(t, V100Spec(), 9)
	observed.SetObserver(obs.NewObserver())
	p := memoryBound()
	for i := 0; i < 5; i++ {
		a, err := plain.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := observed.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("rep %d: observed run diverged: %+v vs %+v", i, a, b)
		}
	}
}
