package metrics

import (
	"maps"
	"sync"
	"testing"
)

func TestCountersAddN(t *testing.T) {
	c := NewCounters()
	c.Add("a", 1)
	c.AddN(map[string]int64{"a": 2, "b": 5})
	c.AddN(nil) // no-op, must not panic
	if got := c.Get("a"); got != 3 {
		t.Fatalf("a = %d, want 3", got)
	}
	if got := c.Get("b"); got != 5 {
		t.Fatalf("b = %d, want 5", got)
	}
	if got, want := c.Snapshot(), map[string]int64{"a": 3, "b": 5}; !maps.Equal(got, want) {
		t.Fatalf("Snapshot = %v, want %v", got, want)
	}
}

func TestCountersConcurrentAddN(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.AddN(map[string]int64{"x": 1, "y": 2})
				_ = c.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := c.Get("x"); got != 8000 {
		t.Fatalf("x = %d, want 8000", got)
	}
	if got, want := c.Snapshot(), map[string]int64{"x": 8000, "y": 16000}; !maps.Equal(got, want) {
		t.Fatalf("Snapshot = %v, want %v", got, want)
	}
}

func TestCountersString(t *testing.T) {
	c := NewCounters()
	c.Add("z", 1)
	c.Add("a", 2)
	if got, want := c.String(), "a=2 z=1"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
