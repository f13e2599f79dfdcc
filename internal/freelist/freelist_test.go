package freelist_test

import (
	"testing"

	"repro/internal/freelist"
)

// TestListKeysAndBound: Get returns an object listed under its key, or
// builds one; Put keeps at most Bound objects, dropping the least
// recently returned.
func TestListKeysAndBound(t *testing.T) {
	type obj struct{ key, id int }
	next := 0
	l := freelist.New("test objects", func(k int) *obj {
		next++
		return &obj{k, next}
	})
	built := func() int64 { return freelist.Built()["test objects"] }

	a, b := l.Get(1), l.Get(2)
	l.Put(1, a)
	l.Put(2, b)
	if got := l.Get(1); got != a {
		t.Fatalf("Get(1) returned %+v, want the listed %+v", got, a)
	}
	if got := l.Get(1); got == a || got.key != 1 {
		t.Fatalf("Get(1) of an empty key returned %+v, want a new object", got)
	}
	if built() != 3 {
		t.Fatalf("built %d objects, want 3", built())
	}

	n := freelist.Bound()
	objs := make([]*obj, n+1)
	for i := range objs {
		objs[i] = &obj{key: 3, id: -i}
		l.Put(3, objs[i])
	}
	if l.Len() != n {
		t.Fatalf("list holds %d objects, want the bound %d", l.Len(), n)
	}
	for i := n; i >= 1; i-- { // most recently returned first; objs[0] was dropped
		if got := l.Get(3); got != objs[i] {
			t.Fatalf("Get(3) returned %+v, want %+v", got, objs[i])
		}
	}
	freelist.Drain()
	if l.Len() != 0 {
		t.Fatalf("Drain left %d objects", l.Len())
	}
}

// TestSizedListBytes: a NewSized list keeps at most its byte budget,
// dropping the least recently returned objects to make room, and never
// keeps an object larger than the whole budget.
func TestSizedListBytes(t *testing.T) {
	type obj struct{ bytes int }
	l := freelist.NewSized("test sized objects", func(struct{}) *obj { return &obj{} },
		func(o *obj) int { return o.bytes }, 100)
	a, b, c := &obj{40}, &obj{50}, &obj{30}
	l.Put(struct{}{}, a)
	l.Put(struct{}{}, b)
	l.Put(struct{}{}, c) // 120 bytes: a, the least recently returned, goes
	if l.Len() != 2 {
		t.Fatalf("list holds %d objects, want 2", l.Len())
	}
	l.Put(struct{}{}, &obj{101})
	if l.Len() != 2 {
		t.Fatalf("an object over the budget was kept: %d objects", l.Len())
	}
	if got := l.Get(struct{}{}); got != c {
		t.Fatalf("Get returned %+v, want the most recently returned %+v", got, c)
	}
	if got := l.Get(struct{}{}); got != b {
		t.Fatalf("Get returned %+v, want %+v", got, b)
	}
	l.Put(struct{}{}, &obj{100}) // the list is empty again: the whole budget fits
	if l.Len() != 1 {
		t.Fatalf("list holds %d objects, want 1", l.Len())
	}
}
