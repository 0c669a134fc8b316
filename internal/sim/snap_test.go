package sim_test

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestSnapBulkWords pins the bulk word copies of the snapshot arena:
// runs written with Snap.Uint64s interleave with single words and
// Values, and read back word for word at a non-zero arena offset, after
// a Truncate, and for an empty run.
func TestSnapBulkWords(t *testing.T) {
	var sn sim.Snap
	// A prefix the snapshot under test does not own.
	sn.Uint64(0xdead)
	sn.Value("prefix")
	sn.Uint64s([]uint64{1, 2, 3})

	runA := []uint64{10, 11, 12, 13}
	runB := []uint64{20}
	write := func() (w, v int) {
		w, v = sn.Len()
		sn.Int(-7)
		sn.Uint64s(runA)
		sn.Value("mid")
		sn.Uint64s(nil)
		sn.Bool(true)
		sn.Uint64s(runB)
		sn.Value(42)
		return w, v
	}
	read := func(label string, w, v int) {
		t.Helper()
		r := sn.ReaderAt(w, v)
		if got := r.Int(); got != -7 {
			t.Fatalf("%s: leading int = %d, want -7", label, got)
		}
		a := make([]uint64, len(runA))
		r.Uint64s(a)
		if !slices.Equal(a, runA) {
			t.Fatalf("%s: first run = %v, want %v", label, a, runA)
		}
		if got := r.Value(); got != "mid" {
			t.Fatalf("%s: value = %v, want mid", label, got)
		}
		r.Uint64s(nil)
		if !r.Bool() {
			t.Fatalf("%s: bool after the empty run = false, want true", label)
		}
		b := make([]uint64, len(runB))
		r.Uint64s(b)
		if !slices.Equal(b, runB) {
			t.Fatalf("%s: second run = %v, want %v", label, b, runB)
		}
		if got := r.Value(); got != 42 {
			t.Fatalf("%s: last value = %v, want 42", label, got)
		}
	}

	w, v := write()
	if w == 0 || v == 0 {
		t.Fatalf("snapshot offset (%d, %d) should be past the prefix", w, v)
	}
	if gotW, gotV := sn.Len(); gotW-w != 1+len(runA)+1+len(runB) || gotV-v != 2 {
		t.Fatalf("snapshot spans (%d words, %d values), want (%d, 2)",
			gotW-w, gotV-v, 1+len(runA)+1+len(runB))
	}
	read("first write", w, v)

	// Truncate back to the snapshot's start and write it again with
	// different run contents: the reader sees only the new words.
	sn.Truncate(w, v)
	runA = []uint64{30, 31, 32, 33}
	runB = []uint64{40}
	if w2, v2 := write(); w2 != w || v2 != v {
		t.Fatalf("rewrite landed at (%d, %d), want (%d, %d)", w2, v2, w, v)
	}
	read("after truncate", w, v)

	// The prefix is untouched and still reads back.
	r := sn.ReaderAt(0, 0)
	pre := make([]uint64, 4)
	r.Uint64s(pre)
	if !slices.Equal(pre, []uint64{0xdead, 1, 2, 3}) || r.Value() != "prefix" {
		t.Fatalf("prefix = %v, want [0xdead 1 2 3]", pre)
	}
}
