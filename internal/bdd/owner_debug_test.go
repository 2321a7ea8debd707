//go:build bdddebug

package bdd

import "testing"

// TestOwnerCheckPanics verifies that, under the bdddebug tag, using a
// Manager from a goroutine other than its owner panics.
func TestOwnerCheckPanics(t *testing.T) {
	m := New()
	a := m.VarNode(m.NewVar("a"))
	b := m.VarNode(m.NewVar("b"))

	type outcome struct {
		panicked bool
		msg      interface{}
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{true, r}
				return
			}
			ch <- outcome{false, nil}
		}()
		m.And(a, b)
	}()
	if got := <-ch; !got.panicked {
		t.Fatal("cross-goroutine And did not panic under bdddebug")
	}
}

// TestOwnerCheckCoversMutatingHelpers verifies that the mutating entry
// points that historically skipped the ownership assertion — Protect,
// Unprotect and the mk-reaching VarNode helper — now panic from a
// foreign goroutine, so bdddebug actually catches cross-goroutine
// mutation of the roots map and the unique tables.
func TestOwnerCheckCoversMutatingHelpers(t *testing.T) {
	m := New()
	v := m.NewVar("a")
	a := m.VarNode(v)

	calls := map[string]func(){
		"Protect":   func() { m.Protect(a) },
		"Unprotect": func() { m.Unprotect(a) },
		"VarNode":   func() { m.VarNode(v) },
		"Xor":       func() { m.Xor(a, a) },
		"Not":       func() { m.Not(a) },
	}
	for name, call := range calls {
		ch := make(chan bool, 1)
		go func(f func()) {
			defer func() { ch <- recover() != nil }()
			f()
		}(call)
		if !<-ch {
			t.Errorf("%s from a foreign goroutine did not panic under bdddebug", name)
		}
	}
}

// TestUseAfterReleasePanics verifies that, under the bdddebug tag, a
// released manager is never handed out again and every checked entry
// point panics on it, so a stale pointer held past Release is caught
// at its first use instead of corrupting the manager's next life.
func TestUseAfterReleasePanics(t *testing.T) {
	m := New()
	v := m.NewVar("a")
	a := m.VarNode(v)
	m.Release()
	if New() == m {
		t.Fatal("New handed out a released manager under bdddebug")
	}
	calls := map[string]func(){
		"NewVar":  func() { m.NewVar("b") },
		"VarNode": func() { m.VarNode(v) },
		"And":     func() { m.And(a, a) },
		"Protect": func() { m.Protect(a) },
		"GC":      func() { m.GC() },
		"Sift":    func() { m.Sift(SiftOptions{}) },
	}
	for name, call := range calls {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic under bdddebug", name)
				}
			}()
			call()
		}()
	}
}
