package experiments

import (
	"context"
	"fmt"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/parallel"
	"sisyphus/internal/platform"
	"sisyphus/internal/probe"
)

// IntentResult demonstrates §4's platform proposals: with intent tags, an
// analyst can separate user-initiated (selection-biased) samples from
// baseline (unconditional) samples in one mixed dataset. Tag-blind pooling
// inherits the bias; the baseline stratum recovers the truth.
type IntentResult struct {
	Hours int
	// TrueMeanRTT is the population mean RTT over all hours.
	TrueMeanRTT float64
	// BaselineMean is the mean over IntentBaseline records.
	BaselineMean float64
	// UserMean is the mean over IntentUserInitiated records (biased high:
	// users test when things are bad).
	UserMean float64
	// PooledMean is the tag-blind mean over everything.
	PooledMean float64
	// TriggeredCount shows conditional activation volume (BGP-triggered).
	TriggeredCount int
	BaselineCount  int
	UserCount      int
}

// Render prints the bias decomposition.
func (r *IntentResult) Render() string {
	t := &table{header: []string{"sample", "n", "mean RTT (ms)", "bias vs truth"}}
	t.add("population (ground truth)", "-", fmt.Sprintf("%.2f", r.TrueMeanRTT), "-")
	t.add("baseline-tagged", fmt.Sprintf("%d", r.BaselineCount), fmt.Sprintf("%.2f", r.BaselineMean),
		fmt.Sprintf("%+.2f", r.BaselineMean-r.TrueMeanRTT))
	t.add("user-initiated-tagged", fmt.Sprintf("%d", r.UserCount), fmt.Sprintf("%.2f", r.UserMean),
		fmt.Sprintf("%+.2f", r.UserMean-r.TrueMeanRTT))
	t.add("pooled, tag-blind", fmt.Sprintf("%d", r.UserCount+r.BaselineCount), fmt.Sprintf("%.2f", r.PooledMean),
		fmt.Sprintf("%+.2f", r.PooledMean-r.TrueMeanRTT))
	return fmt.Sprintf("Intent tagging & conditional activation (§4)\n(%d hours; %d BGP-triggered traceroutes captured route changes)\n\n%s",
		r.Hours, r.TriggeredCount, t.String())
}

// RunIntent runs a mixed measurement campaign — scheduled baselines,
// endogenous user tests, and BGP-triggered traceroutes — over a world with
// congestion episodes and occasional reroutes, then contrasts the analyses
// the intent tags make possible.
func RunIntent(ctx context.Context, pool parallel.Pool, seed uint64, hours int) (*IntentResult, error) {
	if hours <= 0 {
		hours = 1500
	}
	res := &IntentResult{Hours: hours}
	store := platform.NewStore()
	var truthSum float64
	var truthN int
	var base, user []*probe.Measurement
	err := stagedRun(ctx, "intent", func(ctx context.Context) error {
		return intentScenario(ctx, pool, seed, hours, store, &truthSum, &truthN)
	}, func(ctx context.Context) error {
		base = store.ByIntent(probe.IntentBaseline)
		user = store.ByIntent(probe.IntentUserInitiated)
		return nil
	}, func(ctx context.Context) error {
		// Compare on TrueRTTms so the contrast isolates pure selection bias:
		// measured values differ from true ones only by i.i.d. jitter, which
		// is identical in distribution across intents.
		mean := func(ms []*probe.Measurement) float64 {
			if len(ms) == 0 {
				return 0
			}
			var s float64
			for _, m := range ms {
				s += m.TrueRTTms
			}
			return s / float64(len(ms))
		}
		res.TrueMeanRTT = truthSum / float64(truthN)
		res.BaselineMean = mean(base)
		res.UserMean = mean(user)
		res.PooledMean = mean(append(append([]*probe.Measurement(nil), base...), user...))
		res.TriggeredCount = len(store.ByIntent(probe.IntentTriggered))
		res.BaselineCount = len(base)
		res.UserCount = len(user)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// intentScenario builds the dual-transit eyeball world and runs the mixed
// campaign — user tests, scheduled baselines, BGP-triggered traceroutes —
// landing everything in the store while tracking the population truth.
func intentScenario(ctx context.Context, pool parallel.Pool, seed uint64, hours int, store *platform.Store, truthSum *float64, truthN *int) error {
	b, err := dualTransitBoard(0.45)
	if err != nil {
		return err
	}
	src := b.src
	e := engine.New(b.tp, seed, engine.Config{AdaptiveEgress: true, Pool: pool}).Bind(ctx)
	pr := probe.NewProber(e, seed+1)
	crowdPlan{start: 20, dur: uniform{6, 10}, mag: uniform{0.35, 0.2}, gap: uniform{40, 60}}.
		schedule(e.Traffic.AddFlashCrowd, mathx.NewRNG(seed+2), hours, b.rel.Links[7000][100][0])

	um := platform.NewUserModel([]platform.UserPop{{Src: src, Dst: 4001, Size: 1}}, seed+3)
	um.BaseRate = 0.1
	um.PerfBoost = 6
	baseline := platform.NewBaseline(src, 4001, 4)

	rib, err := e.RIB()
	if err != nil {
		return err
	}
	dst, err := rib.NearestPoP(src, 4001)
	if err != nil {
		return err
	}
	watch := platform.NewBGPWatch(src, dst)

	var ms []*probe.Measurement
	for e.Hour() < float64(hours) {
		if err := e.Step(); err != nil {
			return err
		}
		perf, err := e.PerfToAS(src, 4001)
		if err != nil {
			return err
		}
		*truthSum += perf.RTTms
		*truthN++

		if ms, err = um.Step(pr, ms[:0], nil); err != nil {
			return err
		}
		if err := store.Add(ms...); err != nil {
			return err
		}
		if m, err := baseline.Step(pr); err != nil {
			return err
		} else if m != nil {
			if err := store.Add(m); err != nil {
				return err
			}
		}
		if m, err := watch.Step(pr); err != nil {
			return err
		} else if m != nil {
			if err := store.Add(m); err != nil {
				return err
			}
		}
	}
	return nil
}

func init() {
	registerOptions("intent", "§4 proposals: intent tags separate biased and unbiased samples; triggers capture changes", HorizonOptions{Hours: 1500},
		func(ctx context.Context, pool parallel.Pool, seed uint64, o HorizonOptions) (*IntentResult, error) {
			return RunIntent(ctx, pool, seed, o.Hours)
		})
}
