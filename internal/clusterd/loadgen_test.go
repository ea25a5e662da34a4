package clusterd

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestOfferScheduleAbsoluteDeadlines drives the arrival loop on a fake
// clock whose every timer wakes 1 ms late, the overshoot a loaded box
// shows. At 1000 arrivals/s that overshoot equals the mean gap: chained
// relative sleeps would offer about half the schedule, while absolute
// deadlines offer every arrival due in the window and finish it on time.
func TestOfferScheduleAbsoluteDeadlines(t *testing.T) {
	const (
		seed      = 3
		rate      = 1000.0
		window    = time.Second
		overshoot = time.Millisecond
	)
	// The schedule itself: arrivals due inside the window.
	ref := rand.New(rand.NewSource(seed))
	want := 0
	for due := time.Duration(0); ; want++ {
		due += time.Duration(-math.Log(1-ref.Float64()) / rate * float64(time.Second))
		if due >= window {
			break
		}
	}

	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	sleep := func(_ context.Context, d time.Duration) error {
		if d > 0 {
			clock = clock.Add(d + overshoot)
		}
		return nil
	}
	offered := 0
	took := offerSchedule(context.Background(), rand.New(rand.NewSource(seed)), rate, window, now, sleep, func() { offered++ })

	if offered != want {
		t.Errorf("offered %d arrivals, want the schedule's %d", offered, want)
	}
	if took > window+overshoot {
		t.Errorf("offering the window took %v, want at most %v", took, window+overshoot)
	}
}

// TestOfferScheduleStopsOnCancel checks the loop exits once its context
// ends, without offering the rest of the window.
func TestOfferScheduleStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	clock := time.Unix(0, 0)
	offered := 0
	offerSchedule(ctx, rand.New(rand.NewSource(1)), 100, time.Minute,
		func() time.Time { return clock },
		func(_ context.Context, d time.Duration) error { clock = clock.Add(d); return ctx.Err() },
		func() {
			offered++
			if offered == 10 {
				cancel()
			}
		})
	if offered != 10 {
		t.Errorf("offered %d arrivals after cancelling at 10", offered)
	}
}
