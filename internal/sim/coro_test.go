package sim

import (
	"errors"
	"runtime"
	"testing"
)

// TestFailFromProcess: Fail called from another process's body unwinds
// the victim at that instant and returns to the caller, which keeps
// running. The victim counts one step per virtual second from t=0, so a
// kill at t=3.5 leaves exactly four.
func TestFailFromProcess(t *testing.T) {
	k := New()
	steps := 0
	victim := k.Spawn("victim", func(p *Proc) {
		for {
			steps++
			p.Sleep(1)
		}
	})
	resumedAt := -1.0
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(3.5)
		k.Fail(victim)
		resumedAt = p.Now()
		p.Sleep(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 4 {
		t.Errorf("victim ran %d steps, want 4 (t=0,1,2,3 before the kill at 3.5)", steps)
	}
	if !victim.Failed() || !victim.Done() {
		t.Errorf("victim failed=%v done=%v, want both", victim.Failed(), victim.Done())
	}
	if resumedAt != 3.5 {
		t.Errorf("killer resumed at t=%g, want 3.5", resumedAt)
	}
	if k.Now() != 4.5 {
		t.Errorf("run ended at t=%g, want 4.5", k.Now())
	}
}

// TestFailBeforeFirstTurn: a process spawned mid-run and failed before
// the kernel ever scheduled it must not run any of its body — it would
// otherwise act (here: send a message) after its death.
func TestFailBeforeFirstTurn(t *testing.T) {
	k := New()
	entered := false
	got := 0
	sink := k.Spawn("sink", func(p *Proc) {
		for {
			if _, ok := p.RecvUntil(5); !ok {
				return
			}
			got++
		}
	})
	var late *Proc
	k.At(1, func() {
		late = k.Spawn("late", func(p *Proc) {
			entered = true
			p.Send(sink, "from beyond", 0)
			p.Recv()
		})
		k.Fail(late)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if entered || got != 0 {
		t.Errorf("dead-on-arrival process entered its body (%v) and delivered %d message(s)", entered, got)
	}
	if !late.Failed() || !late.Done() {
		t.Errorf("late failed=%v done=%v, want both", late.Failed(), late.Done())
	}
}

// TestHaltBeforeFirstTurn: a process still waiting for its first turn
// when the run halts is unwound without entering its body.
func TestHaltBeforeFirstTurn(t *testing.T) {
	k := New()
	entered := false
	var late *Proc
	k.Spawn("aborter", func(p *Proc) {
		p.Sleep(1)
		late = k.Spawn("late", func(p *Proc) {
			entered = true
			p.Recv()
		})
		k.Halt()
		p.Sleep(1) // hand control back; the run stops here
	})
	if err := k.Run(); err != nil {
		t.Fatalf("halted run returned %v, want nil", err)
	}
	if entered {
		t.Error("process unwound by Halt before its first turn entered its body")
	}
	if !late.Done() || late.Failed() {
		t.Errorf("late done=%v failed=%v, want done and not failed", late.Done(), late.Failed())
	}
}

// TestBodyPanicReachesRunCaller: a panic in a process body that is not
// the kernel's own unwind surfaces from Run with its original value.
func TestBodyPanicReachesRunCaller(t *testing.T) {
	boom := errors.New("boom")
	k := New()
	k.Spawn("bad", func(p *Proc) {
		p.Sleep(1)
		panic(boom)
	})
	defer func() {
		if r := recover(); r != boom {
			t.Errorf("Run panicked with %v, want the body's value %v", r, boom)
		}
	}()
	_ = k.Run()
	t.Error("Run returned normally after a body panic")
}

// TestRunLeavesNoGoroutines: whichever way Run returns — every process
// finished, deadlock, Halt, or a mid-run Fail — every process coroutine
// has ended by the time it does.
func TestRunLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name    string
		build   func(k *Kernel)
		wantErr bool
	}{
		{"finish", func(k *Kernel) {
			var a, b *Proc
			a = k.Spawn("a", func(p *Proc) { p.Send(b, 1, 1); p.Recv() })
			b = k.Spawn("b", func(p *Proc) { p.Send(a, p.Recv(), 1) })
		}, false},
		{"deadlock", func(k *Kernel) {
			for i := 0; i < 3; i++ {
				k.Spawn("stuck", func(p *Proc) { p.Recv() })
			}
		}, true},
		{"halt", func(k *Kernel) {
			k.Spawn("waiter", func(p *Proc) { p.Recv() })
			k.Spawn("sleeper", func(p *Proc) { p.Sleep(10) })
			k.Spawn("aborter", func(p *Proc) { p.Sleep(1); k.Halt(); p.Sleep(1) })
		}, false},
		{"fail", func(k *Kernel) {
			v := k.Spawn("victim", func(p *Proc) { p.Sleep(10) })
			k.Spawn("survivor", func(p *Proc) { p.Sleep(2) })
			v.FailAt(1)
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := New()
			c.build(k)
			if err := k.Run(); (err != nil) != c.wantErr {
				t.Fatalf("Run returned %v, want error=%v", err, c.wantErr)
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("%d goroutines after Run, %d before: process coroutines leaked", after, before)
			}
		})
	}
}
