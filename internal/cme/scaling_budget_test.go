package cme

import (
	"context"
	"testing"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
)

// TestScalingBudgetCapsLadder: the scaling budget is one allowance for a
// whole SolveLadder call, shared by its fit samples and fall-through
// sizes. Under a tight deadline or a points cap the ladder returns within
// the allowance (plus the one degradation grace and the untimed per-size
// setup), spends no more than the allowance, degrades every size it cannot
// answer, and spends no more fit solves than an unlimited run — a sample
// the budget cuts short ends its class's fit instead of widening the fit
// window.
func TestScalingBudgetCapsLadder(t *testing.T) {
	cfg := cache.Config{SizeBytes: 128, LineBytes: 32, Assoc: 1}
	ns := []int64{41, 61, 81, 101} // four residue classes mod the period 16

	type outcome struct {
		wall   time.Duration
		points int64 // iteration points classified by the call
		stats  ScalingStats
	}
	run := func(b budget.Budget) outcome {
		t.Helper()
		s, err := PrepareScaling(tomcatvAt, cfg, Options{}, ScalingOptions{Budget: b})
		if err != nil {
			t.Fatal(err)
		}
		before := mPointsClassed.Value()
		start := time.Now()
		reps, err := s.SolveLadder(context.Background(), ns)
		wall := time.Since(start)
		if err != nil {
			t.Fatalf("budget %+v: %v", b, err)
		}
		for i, rep := range reps {
			if rep == nil || rep.Scaling == nil {
				t.Fatalf("budget %+v: size %d unanswered", b, ns[i])
			}
			if rep.Tier != TierExact && !rep.Degraded {
				t.Errorf("budget %+v: size %d is %v without the degraded flag", b, ns[i], rep.Tier)
			}
			for _, rr := range rep.Refs {
				if !rr.Complete {
					t.Fatalf("budget %+v: size %d ref %s left incomplete", b, ns[i], rr.Ref.ID)
				}
			}
		}
		return outcome{wall: wall, points: mPointsClassed.Value() - before, stats: s.Stats()}
	}

	free := run(budget.Budget{})
	if free.stats.Fallbacks != 0 {
		t.Fatalf("unlimited ladder fell through %d times", free.stats.Fallbacks)
	}
	// Setup per size (build, reuse vectors, probabilistic fill) is not
	// metered; a few seconds covers it even under the race detector.
	const slack = 3 * time.Second
	const maxPoints = 50_000
	for _, tc := range []struct {
		name      string
		b         budget.Budget
		maxWall   time.Duration
		maxPoints int64
	}{
		// The points cap admits one grace of a quarter of the cap, plus
		// flush granularity.
		{"points cap", budget.Budget{MaxPoints: maxPoints}, slack, 2 * maxPoints},
		{"deadline", budget.Budget{Deadline: 100 * time.Millisecond}, 100*time.Millisecond + slack, free.points},
	} {
		got := run(tc.b)
		t.Logf("%s: wall %v, %d points, %+v (unlimited: %v, %d points, %+v)",
			tc.name, got.wall, got.points, got.stats, free.wall, free.points, free.stats)
		if got.wall > tc.maxWall {
			t.Errorf("%s: ladder ran %v, want at most %v", tc.name, got.wall, tc.maxWall)
		}
		if got.points > tc.maxPoints {
			t.Errorf("%s: ladder classified %d points, want at most %d", tc.name, got.points, tc.maxPoints)
		}
		if got.stats.FitSolves > free.stats.FitSolves {
			t.Errorf("%s: %d fit solves, the unlimited run needed %d", tc.name, got.stats.FitSolves, free.stats.FitSolves)
		}
	}
}
