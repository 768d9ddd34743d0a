package geometry

import (
	"testing"
)

func TestMultisetOf(t *testing.T) {
	m, err := MultisetOf(Vector{1, 2}, Vector{3, 4}, Vector{1, 2})
	if err != nil {
		t.Fatalf("MultisetOf: %v", err)
	}
	if m.Len() != 3 {
		t.Errorf("Len = %d, want 3", m.Len())
	}
	if m.Dim() != 2 {
		t.Errorf("Dim = %d, want 2", m.Dim())
	}
	// Duplicates are preserved.
	if !m.At(0).Equal(m.At(2)) {
		t.Error("duplicate member not preserved")
	}
}

func TestMultisetOfEmpty(t *testing.T) {
	if _, err := MultisetOf(); err == nil {
		t.Error("expected error for empty MultisetOf")
	}
}

func TestMultisetOfMixedDims(t *testing.T) {
	if _, err := MultisetOf(Vector{1}, Vector{1, 2}); err == nil {
		t.Error("expected error for mixed dimensions")
	}
}

func TestMultisetAddClones(t *testing.T) {
	m := NewMultiset(2)
	p := Vector{1, 1}
	if err := m.Add(p); err != nil {
		t.Fatalf("Add: %v", err)
	}
	p[0] = 99
	if m.At(0)[0] != 1 {
		t.Error("Add did not clone the point")
	}
}

func TestMultisetAddWrongDim(t *testing.T) {
	m := NewMultiset(2)
	if err := m.Add(Vector{1}); err == nil {
		t.Error("expected dimension error")
	}
}

func TestMultisetSubset(t *testing.T) {
	m := MustMultisetOf(Vector{0}, Vector{1}, Vector{2}, Vector{3})
	s, err := m.Subset([]int{3, 1})
	if err != nil {
		t.Fatalf("Subset: %v", err)
	}
	if s.Len() != 2 || s.At(0)[0] != 3 || s.At(1)[0] != 1 {
		t.Errorf("Subset = %v", s)
	}
}

func TestMultisetSubsetOutOfRange(t *testing.T) {
	m := MustMultisetOf(Vector{0})
	if _, err := m.Subset([]int{1}); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := m.Subset([]int{-1}); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestMultisetEqual(t *testing.T) {
	a := MustMultisetOf(Vector{1}, Vector{2})
	b := MustMultisetOf(Vector{1}, Vector{2})
	c := MustMultisetOf(Vector{2}, Vector{1})
	if !a.Equal(b) {
		t.Error("a should equal b")
	}
	if a.Equal(c) {
		t.Error("a should not equal c (order differs)")
	}
	if !a.EqualUnordered(c) {
		t.Error("a should equal c unordered")
	}
}

func TestMultisetEqualUnorderedMultiplicity(t *testing.T) {
	a := MustMultisetOf(Vector{1}, Vector{1}, Vector{2})
	b := MustMultisetOf(Vector{1}, Vector{2}, Vector{2})
	if a.EqualUnordered(b) {
		t.Error("different multiplicities must not compare equal")
	}
}

func TestMultisetBounds(t *testing.T) {
	m := MustMultisetOf(Vector{1, -5}, Vector{-2, 7}, Vector{0, 0})
	lo, hi, err := m.Bounds()
	if err != nil {
		t.Fatalf("Bounds: %v", err)
	}
	if !lo.Equal(Vector{-2, -5}) || !hi.Equal(Vector{1, 7}) {
		t.Errorf("Bounds = %v, %v", lo, hi)
	}
}

func TestMultisetBoundsEmpty(t *testing.T) {
	m := NewMultiset(2)
	if _, _, err := m.Bounds(); err == nil {
		t.Error("expected error on empty multiset")
	}
}

func TestMultisetSpreadInf(t *testing.T) {
	m := MustMultisetOf(Vector{0, 0}, Vector{1, 10})
	s, err := m.SpreadInf()
	if err != nil {
		t.Fatalf("SpreadInf: %v", err)
	}
	if s != 10 {
		t.Errorf("SpreadInf = %g, want 10", s)
	}
}

func TestMultisetClone(t *testing.T) {
	a := MustMultisetOf(Vector{1, 2})
	b := a.Clone()
	b.At(0)[0] = 99
	if a.At(0)[0] != 1 {
		t.Error("Clone shares point storage")
	}
}

func TestMultisetString(t *testing.T) {
	m := MustMultisetOf(Vector{1}, Vector{2})
	if got := m.String(); got != "{(1), (2)}" {
		t.Errorf("String = %q", got)
	}
}
