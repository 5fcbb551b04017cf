package drom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sdpolicy/internal/job"
)

func TestMaskBasics(t *testing.T) {
	m := NewMask(96)
	if m.Count() != 0 || m.Width() != 96 {
		t.Fatalf("fresh mask count=%d width=%d", m.Count(), m.Width())
	}
	m.Set(0)
	m.Set(95)
	if !m.Has(0) || !m.Has(95) || m.Has(50) {
		t.Fatal("set/has mismatch")
	}
	if m.Count() != 2 {
		t.Fatalf("count %d, want 2", m.Count())
	}
	if m.Has(-1) || m.Has(96) {
		t.Fatal("out-of-range Has should be false")
	}
}

func TestRangeMask(t *testing.T) {
	m := RangeMask(48, 24, 48)
	if m.Count() != 24 {
		t.Fatalf("count %d, want 24", m.Count())
	}
	if m.Has(23) || !m.Has(24) || !m.Has(47) {
		t.Fatal("range boundaries wrong")
	}
	if got := m.String(); got != "24-47" {
		t.Fatalf("string %q", got)
	}
	if got := NewMask(8).String(); got != "-" {
		t.Fatalf("empty mask string %q", got)
	}
	single := RangeMask(8, 3, 4)
	if got := single.String(); got != "3" {
		t.Fatalf("single-core string %q", got)
	}
}

func TestMaskOverlapsAndClone(t *testing.T) {
	a := RangeMask(48, 0, 24)
	b := RangeMask(48, 24, 48)
	if a.Overlaps(b) {
		t.Fatal("disjoint masks reported overlapping")
	}
	c := RangeMask(48, 20, 30)
	if !a.Overlaps(c) || !b.Overlaps(c) {
		t.Fatal("overlapping masks reported disjoint")
	}
	d := a.Clone()
	d.Set(30)
	if a.Has(30) {
		t.Fatal("clone shares storage with original")
	}
}

func TestMaskPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero width", func() { NewMask(0) })
	mustPanic("set out of range", func() { NewMask(8).Set(8) })
	mustPanic("bad range", func() { RangeMask(8, 5, 3) })
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(48, 0)
	owner := RangeMask(48, 0, 48)
	if err := r.Register(3, 1, owner); err != nil {
		t.Fatal(err)
	}
	// shrink owner to socket 0, register guest on socket 1
	if _, err := r.SetMask(3, 1, RangeMask(48, 0, 24)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(3, 2, RangeMask(48, 24, 48)); err != nil {
		t.Fatal(err)
	}
	ids := r.Procs(3)
	if len(ids) != 2 {
		t.Fatalf("procs %v", ids)
	}
	m, ok := r.GetMask(3, 1)
	if !ok || m.Count() != 24 {
		t.Fatalf("owner mask %v ok=%v", m, ok)
	}
	// guest ends; owner expands
	if err := r.Clean(3, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SetMask(3, 1, RangeMask(48, 0, 48)); err != nil {
		t.Fatal(err)
	}
	if err := r.Clean(3, 1); err != nil {
		t.Fatal(err)
	}
	if len(r.Procs(3)) != 0 {
		t.Fatal("node not empty after cleans")
	}
	s := r.Stats()
	if s.Registered != 2 || s.Cleaned != 2 || s.MaskSets != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestRegistryRejections(t *testing.T) {
	r := NewRegistry(48, 5)
	if r.Overhead() != 5 {
		t.Fatalf("overhead %d", r.Overhead())
	}
	full := RangeMask(48, 0, 48)
	if err := r.Register(0, 1, full); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(0, 1, full); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register(0, 2, RangeMask(48, 40, 48)); err == nil {
		t.Fatal("overlapping registration accepted")
	}
	if err := r.Register(0, 2, NewMask(48)); err == nil {
		t.Fatal("empty mask accepted")
	}
	if err := r.Register(0, 2, RangeMask(96, 48, 96)); err == nil {
		t.Fatal("wrong-width mask accepted")
	}
	if _, err := r.SetMask(0, 9, full); err == nil {
		t.Fatal("mask change for unregistered job accepted")
	}
	if _, err := r.SetMask(0, 1, NewMask(48)); err == nil {
		t.Fatal("empty mask change accepted")
	}
	if err := r.Clean(0, 9); err == nil {
		t.Fatal("clean of unregistered job accepted")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetMaskOverlapRejected(t *testing.T) {
	r := NewRegistry(48, 0)
	if err := r.Register(0, 1, RangeMask(48, 0, 24)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(0, 2, RangeMask(48, 24, 48)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SetMask(0, 1, RangeMask(48, 0, 30)); err == nil {
		t.Fatal("overlapping expansion accepted")
	}
	// the failed change must not have been applied
	m, _ := r.GetMask(0, 1)
	if m.Count() != 24 {
		t.Fatalf("mask changed after rejected SetMask: %v", m)
	}
}

// Property: Count equals the number of set bits for arbitrary range
// constructions, and disjoint ranges never overlap.
func TestPropertyRangeMasks(t *testing.T) {
	f := func(aLo, aHi, bLo, bHi uint8) bool {
		const n = 128
		al, ah := int(aLo)%n, int(aHi)%n
		if al > ah {
			al, ah = ah, al
		}
		bl, bh := int(bLo)%n, int(bHi)%n
		if bl > bh {
			bl, bh = bh, bl
		}
		a := RangeMask(n, al, ah)
		b := RangeMask(n, bl, bh)
		if a.Count() != ah-al || b.Count() != bh-bl {
			return false
		}
		wantOverlap := al < bh && bl < ah && ah > al && bh > bl
		return a.Overlaps(b) == wantOverlap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: random register/set/clean sequences keep node masks disjoint.
func TestPropertyRegistryInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := NewRegistry(16, 0)
	type proc struct {
		node int
		id   job.ID
	}
	var live []proc
	next := job.ID(1)
	for op := 0; op < 2000; op++ {
		switch rng.Intn(3) {
		case 0: // try to register a random range; errors are fine
			node := rng.Intn(4)
			lo := rng.Intn(16)
			hi := lo + 1 + rng.Intn(16-lo)
			if r.Register(node, next, RangeMask(16, lo, hi)) == nil {
				live = append(live, proc{node, next})
			}
			next++
		case 1: // try to move a live proc
			if len(live) == 0 {
				continue
			}
			p := live[rng.Intn(len(live))]
			lo := rng.Intn(16)
			hi := lo + 1 + rng.Intn(16-lo)
			_, _ = r.SetMask(p.node, p.id, RangeMask(16, lo, hi))
		case 2: // clean one
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			p := live[i]
			if err := r.Clean(p.node, p.id); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
}

// The registry keeps copies: changing a mask after Register, SetMask or
// GetMask leaves the registered mask unchanged.
func TestRegistryCopiesMasks(t *testing.T) {
	r := NewRegistry(48, 0)
	m := RangeMask(48, 0, 24)
	if err := r.Register(0, 1, m); err != nil {
		t.Fatal(err)
	}
	m.Set(30)
	if got, _ := r.GetMask(0, 1); got.Count() != 24 || got.Has(30) {
		t.Fatalf("Register aliased the caller's mask: %v", got)
	}
	if err := r.Register(0, 2, RangeMask(48, 24, 48)); err != nil {
		t.Fatalf("caller's later change leaked into the registry: %v", err)
	}
	if err := r.Clean(0, 2); err != nil {
		t.Fatal(err)
	}
	s := RangeMask(48, 0, 12)
	if _, err := r.SetMask(0, 1, s); err != nil {
		t.Fatal(err)
	}
	s.SetRange(0, 48)
	got, _ := r.GetMask(0, 1)
	if got.Count() != 12 {
		t.Fatalf("SetMask aliased the caller's mask: %v", got)
	}
	got.Set(40)
	if again, _ := r.GetMask(0, 1); again.Has(40) {
		t.Fatal("GetMask returned the registry's own storage")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Storage a cleaned process leaves behind is reused by the next Register
// on the node; the new mask must carry none of the old job's bits, in
// any word of a multi-word mask.
func TestRegistryReusedStorageNoLeak(t *testing.T) {
	r := NewRegistry(128, 0)
	for _, id := range []job.ID{1, 2, 3} {
		lo := int(id-1) * 40
		if err := r.Register(5, id, RangeMask(128, lo, lo+40)); err != nil {
			t.Fatal(err)
		}
	}
	// Clean the middle process and then the first: the survivor must
	// keep its mask through the reordering.
	for _, id := range []job.ID{2, 1} {
		if err := r.Clean(5, id); err != nil {
			t.Fatal(err)
		}
	}
	if m, ok := r.GetMask(5, 3); !ok || m.Count() != 40 || !m.Has(80) || !m.Has(119) {
		t.Fatalf("survivor mask %v ok=%v", m, ok)
	}
	if err := r.Register(5, 4, RangeMask(128, 120, 128)); err != nil {
		t.Fatal(err)
	}
	m, _ := r.GetMask(5, 4)
	if m.Count() != 8 || m.String() != "120-127" {
		t.Fatalf("reused storage leaked old bits: %v", m)
	}
	if err := r.Register(5, 6, RangeMask(128, 0, 80)); err != nil {
		t.Fatalf("stale bits blocked a disjoint registration: %v", err)
	}
	if m, _ := r.GetMask(5, 6); m.String() != "0-79" {
		t.Fatalf("reused storage leaked old bits: %v", m)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []job.ID{3, 4, 6} {
		if err := r.Clean(5, id); err != nil {
			t.Fatal(err)
		}
	}
	if s := r.Stats(); s.Registered != s.Cleaned || len(r.Procs(5)) != 0 {
		t.Fatalf("registry not empty: %+v, procs %v", s, r.Procs(5))
	}
}
