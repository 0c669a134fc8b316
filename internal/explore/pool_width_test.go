package explore_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/election"
	"repro/internal/explore"
	"repro/internal/objects"
	"repro/internal/sim"
)

// TestWatchdogRequeueKeepsPoolWidth: a worker whose attempt the stall
// watchdog abandoned retires once that attempt returns, so the
// replacement worker the watchdog starts keeps the pool at its width
// rather than above it. Every worker's first system build stalls past
// the watchdog timeout. Once every stall has ended, the goroutines
// alive during the census may be the workers and the watchdog, nothing
// more. The system is machine-backed, so no probe runs goroutines of
// its own.
func TestWatchdogRequeueKeepsPoolWidth(t *testing.T) {
	const (
		workers  = 2
		stallFor = 80 * time.Millisecond
		buildFor = 10 * time.Millisecond
	)
	machines := func() *sim.System {
		sys := sim.NewSystem()
		cas := objects.NewCAS("cas", 4)
		sys.Add(cas)
		for _, m := range election.DirectCASMachines(cas, 4, 3) {
			sys.SpawnMachine(m)
		}
		return sys
	}
	slow := func() *sim.System {
		time.Sleep(buildFor)
		return machines()
	}
	want := explore.Run(machines, explore.Options{}, nil)

	var (
		mu      sync.Mutex
		peak    int
		samples int
		stats   explore.SuperviseStats
		start   time.Time
	)
	base := runtime.NumGoroutine()
	sup := explore.Supervise{
		MaxAttempts:  5,
		BackoffBase:  time.Microsecond,
		BackoffMax:   time.Microsecond,
		StallTimeout: 20 * time.Millisecond,
		Chaos:        &explore.ChaosPlan{Seed: 3, StallRate: 1, MaxStalls: workers, StallFor: stallFor},
		Stats:        &stats,
		OnEvent: func(explore.Event) {
			mu.Lock()
			defer mu.Unlock()
			if start.IsZero() {
				start = time.Now() // the first claim: the stalls begin
			}
			// An abandoned attempt ends one system build and one probe
			// after its stall does.
			if time.Since(start) < stallFor+4*buildFor {
				return
			}
			samples++
			peak = max(peak, runtime.NumGoroutine())
		},
	}
	got := explore.Run(slow, explore.Options{Workers: workers, Supervision: &sup}, nil)
	if got.Complete != want.Complete || got.Incomplete != want.Incomplete || !got.Exhaustive {
		t.Fatalf("healed census %d/%d ex=%v, want %d/%d ex=true",
			got.Complete, got.Incomplete, got.Exhaustive, want.Complete, want.Incomplete)
	}
	if stats.Stalls.Load() != workers || stats.Requeues.Load() == 0 {
		t.Fatalf("%d stalls and %d requeues; the test exercised nothing", stats.Stalls.Load(), stats.Requeues.Load())
	}
	if samples == 0 {
		t.Fatal("the census ended before the stalls did; nothing was sampled")
	}
	if limit := base + workers + 1; peak > limit {
		t.Fatalf("%d goroutines after every stall ended, want at most %d (%d before the census, %d workers, the watchdog)",
			peak, limit, base, workers)
	}
	t.Logf("%d samples, peak %d goroutines (%d before the census)", samples, peak, base)
}
