package explore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for checkpoint resume hygiene: a resume must either credit the
// recorded roots (identical exploration), start fresh with a warning
// (different exploration, or an unusable file), or refuse loudly (same
// exploration under different engine options — the one case where
// proceeding silently would explore under the wrong reduction).

// partialCheckpoint runs a checkpointed walk of wideTree under opts and
// kills it after three completed roots, leaving a real resumable file
// at path.
func partialCheckpoint(t *testing.T, path string, opts Options) {
	t.Helper()
	_, stats, err := RunCheckpointed(wideTree, opts, nil, Checkpoint{
		Path: path, Every: 1, stopAfterRoots: 3,
	})
	if err != errStopped {
		t.Fatalf("partial run returned err=%v, want errStopped", err)
	}
	if stats.Saves == 0 {
		t.Fatal("partial run saved no checkpoint")
	}
}

// TestCheckpointWrongOptionsRefused: resuming the SAME exploration
// under different engine options (reducers, budgets) must fail with a
// clear error naming both option sets — never silently start fresh,
// and never credit roots recorded under the other settings.
func TestCheckpointWrongOptionsRefused(t *testing.T) {
	base := Options{Workers: 2}.withDefaults()
	for _, tc := range []struct {
		name   string
		resume Options
	}{
		{"sleepsets-added", Options{Workers: 2, SleepSets: true}.withDefaults()},
		{"maxruns-changed", Options{Workers: 2, MaxRuns: 123456}.withDefaults()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ck.json")
			partialCheckpoint(t, path, base)
			_, _, err := RunCheckpointed(wideTree, tc.resume, nil, Checkpoint{Path: path, Resume: true})
			if err == nil {
				t.Fatal("resume under mismatched options succeeded; want a refusal")
			}
			if !strings.Contains(err.Error(), "different engine options") {
				t.Fatalf("refusal error does not name the options mismatch: %v", err)
			}
		})
	}

	// A census whose split hits MaxRuns checkpoints its one root. With
	// no frontier, its file cannot tell another tree from this one: a
	// resume under other options is a fresh start with a warning.
	t.Run("one-root-ignored", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ck.json")
		_, stats, err := RunCheckpointed(wideTree, Options{MaxRuns: 3}, nil, Checkpoint{Path: path})
		if err != nil || stats.TotalRoots != 1 || stats.Saves != 1 {
			t.Fatalf("capped census: %+v (err %v), want its one root saved", stats, err)
		}
		_, stats, err = RunCheckpointed(rwAttempt, Options{MaxRuns: 2}, nil, Checkpoint{Path: path, Resume: true})
		if err != nil || stats.ResumedRoots != 0 || stats.Warning == "" {
			t.Fatalf("another capped census resumed %d roots (warning %q, err %v), want a fresh start with a warning",
				stats.ResumedRoots, stats.Warning, err)
		}
	})

	// Sanity: identical options still resume and credit roots.
	t.Run("identical-options-resume", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ck.json")
		partialCheckpoint(t, path, base)
		want := Run(wideTree, base, nil)
		got, stats, err := RunCheckpointed(wideTree, base, nil, Checkpoint{Path: path, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if stats.ResumedRoots == 0 {
			t.Fatal("identical-options resume credited no roots")
		}
		if stats.Warning != "" {
			t.Fatalf("identical-options resume warned: %s", stats.Warning)
		}
		censusSame(t, "identical-options", got, want)
	})
}

// TestCheckpointCorruptionMatrix corrupts a REAL checkpoint file (not a
// hand-written stub) in the ways a crash or operator error produces and
// asserts each resume either recovers fresh with a warning or — for the
// wrong-options case — fails loudly. The census must be exact in every
// recovering case.
func TestCheckpointCorruptionMatrix(t *testing.T) {
	opts := Options{Workers: 2}.withDefaults()
	want := Run(wideTree, opts, nil)
	for _, tc := range []struct {
		name string
		// corrupt mutates the saved checkpoint bytes.
		corrupt func(t *testing.T, data []byte) []byte
		// wantErr: resume must fail (substring match); otherwise it must
		// recover fresh with a warning and zero credited roots.
		wantErr string
	}{
		{
			name: "truncated-to-nothing",
			corrupt: func(t *testing.T, data []byte) []byte {
				return nil
			},
		},
		{
			name: "torn-last-record",
			corrupt: func(t *testing.T, data []byte) []byte {
				// Tear mid-way through the done map: syntactically invalid
				// JSON, as a crash mid-write (without the atomic rename)
				// would leave it.
				cut := len(data) / 2
				if cut == 0 {
					t.Fatal("checkpoint unexpectedly empty")
				}
				return data[:cut]
			},
		},
		{
			name: "wrong-key",
			corrupt: func(t *testing.T, data []byte) []byte {
				// A syntactically valid file for a DIFFERENT exploration:
				// key and frontier both off.
				return []byte(`{"key": 1, "frontier": 2, "opts": "", "done": {"0": {"complete": 9}}}`)
			},
		},
		{
			name: "wrong-options-same-frontier",
			corrupt: func(t *testing.T, data []byte) []byte {
				// Keep the recorded frontier but claim foreign options: the
				// same-exploration/different-options refusal must fire.
				var f ckFile
				if err := json.Unmarshal(data, &f); err != nil {
					t.Fatal(err)
				}
				f.Key = 1
				f.Opts = "d400 c0 f0 m[] r1048576 s0 ytrue ztrue"
				out, err := json.Marshal(&f)
				if err != nil {
					t.Fatal(err)
				}
				return out
			},
			wantErr: "different engine options",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ck.json")
			partialCheckpoint(t, path, opts)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(t, data), 0o644); err != nil {
				t.Fatal(err)
			}
			got, stats, err := RunCheckpointed(wideTree, opts, nil, Checkpoint{Path: path, Resume: true})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("resume err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("resume over %s errored: %v", tc.name, err)
			}
			if stats.Warning == "" {
				t.Fatalf("%s recovered without a warning", tc.name)
			}
			if stats.ResumedRoots != 0 {
				t.Fatalf("%s credited %d roots from a corrupt file", tc.name, stats.ResumedRoots)
			}
			censusSame(t, tc.name, got, want)
		})
	}
}

// TestSupervisorEvents: the OnEvent hook must observe every root's
// lifecycle — one resolve per root, one claim per attempt, and a retry
// when an attempt panics — without perturbing the census.
func TestSupervisorEvents(t *testing.T) {
	want := Run(wideTree, Options{}.withDefaults(), nil)

	var mu sync.Mutex
	counts := map[EventKind]int{}
	record := func(e Event) {
		mu.Lock()
		counts[e.Kind]++
		mu.Unlock()
	}

	var stats SuperviseStats
	var calls atomic.Int64
	opts := Options{Workers: 2}.withDefaults()
	opts.Supervision = &Supervise{
		MaxAttempts: 5,
		BackoffBase: time.Microsecond,
		BackoffMax:  time.Microsecond,
		Stats:       &stats,
		OnEvent:     record,
	}
	// Panic one builder call mid-walk so a retry event fires. Frontier
	// enumeration and leaf replay run before the pool spins up; panic a
	// later call so it lands on a worker attempt.
	b := countingBuilder(wideTree, &calls, 0)
	path := filepath.Join(t.TempDir(), "ck.json")
	if _, ok := frontier(b, opts, opts.workerCount()); !ok {
		t.Fatal("frontier capped unexpectedly")
	}
	fc := calls.Load()
	got, ckStats, err := RunCheckpointed(countingBuilder(wideTree, &calls, fc*2+10), opts, nil,
		Checkpoint{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	censusSame(t, "events-run", got, want)

	mu.Lock()
	defer mu.Unlock()
	if counts[EventResolved] != ckStats.TotalRoots {
		t.Fatalf("resolved events %d, want one per root (%d)", counts[EventResolved], ckStats.TotalRoots)
	}
	if int64(counts[EventClaim]) != stats.Attempts.Load() {
		t.Fatalf("claim events %d, attempts counter %d", counts[EventClaim], stats.Attempts.Load())
	}
	if counts[EventRetry] == 0 {
		t.Fatal("injected panic produced no retry event")
	}
	if int64(counts[EventRetry]) != stats.Retries.Load() {
		t.Fatalf("retry events %d, retries counter %d", counts[EventRetry], stats.Retries.Load())
	}
	if counts[EventFailed] != 0 {
		t.Fatalf("healed run emitted %d failure events", counts[EventFailed])
	}
}
