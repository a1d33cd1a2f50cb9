package serve

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/localrep"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/timing"
)

// defaultScale keeps suite circuits service-sized unless the job asks
// for more; 1.0 is the paper's published sizes.
const defaultScale = 0.2

// defaultEffort trades placement quality for latency relative to the
// VPR default of 10.
const defaultEffort = 2.0

// ExecuteJob runs one replication job start to finish: resolve the
// design, place it, optimize it with the selected algorithm under ctx,
// and optionally route. It is the Manager's default Runner. The result
// is deterministic for identical specs at any Parallelism, because the
// placer is seed-driven and the engine's parallel paths are
// bit-identical to serial.
func ExecuteJob(ctx context.Context, spec JobSpec) (*Result, error) {
	// Normalized() applies every semantic default exactly once; the
	// cluster layer hashes the same normal form, so two specs with
	// equal hashes run identical flows here.
	spec = spec.Normalized()
	algo, ok := flow.ParseAlgorithm(spec.Algo)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", spec.Algo)
	}
	nl, err := resolveNetlist(spec)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	dm := arch.DefaultDelayModel()
	f := arch.MinSquare(nl.NumLUTs(), nl.NumIOs())
	res := &Result{
		Circuit: nl.Name,
		Algo:    algo.String(),
		LUTs:    nl.NumLUTs(),
		IOs:     nl.NumIOs(),
	}

	popt := place.Defaults()
	popt.Seed = spec.Seed
	popt.Effort = spec.Effort
	popt.Delay = dm
	t0 := time.Now()
	pl, err := place.PlaceContext(ctx, nl, f, popt)
	res.PlaceSeconds = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("place: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	a, err := timing.AnalyzeContext(ctx, nl, pl, dm)
	if err != nil {
		return nil, err
	}
	res.PlacedPeriod = a.Period

	t0 = time.Now()
	switch algo {
	case flow.VPRBaseline:
		// The unoptimized placement is the result.
	case flow.LocalRep:
		opt := localrep.Defaults()
		opt.Seed = popt.Seed
		var st *localrep.Stats
		nl, pl, st, err = localrep.BestOf(nl, pl, dm, opt, 3)
		if err != nil {
			return nil, fmt.Errorf("local replication: %w", err)
		}
		res.Iterations = st.Iterations
		res.Replicated = st.Replicated
	default:
		ecfg := core.Default()
		ecfg.Mode = algo.Mode()
		if spec.Parallelism > 0 {
			ecfg.Parallelism = spec.Parallelism
		}
		if spec.MaxIters > 0 {
			ecfg.MaxIters = spec.MaxIters
		}
		eng := core.New(nl, pl, dm, ecfg)
		st, err := eng.RunContext(ctx)
		if err != nil {
			return nil, err
		}
		nl, pl = eng.Netlist, eng.Placement
		res.Iterations = st.Iterations
		res.Replicated = st.Replicated
		res.Unified = st.Unified
		res.FFRelocations = st.FFRelocations
		res.StoppedEarly = st.StoppedEarly
		res.Phases = st.Phases
		res.Incremental = st.Incremental
	}
	res.EngineSeconds = time.Since(t0).Seconds()

	a, err = timing.AnalyzeContext(ctx, nl, pl, dm)
	if err != nil {
		return nil, err
	}
	res.OptimizedPeriod = a.Period

	if spec.Route {
		t0 = time.Now()
		ls, w, err := route.LowStressContext(ctx, nl, pl, f, dm, route.Defaults())
		res.RouteSeconds = time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("route: %w", err)
		}
		res.RoutedCritPath = ls.CritPath
		res.ChannelWidth = w
		res.WireLength = ls.WireLength
	}
	return res, nil
}

// resolveNetlist materializes the job's design: parse the inline text
// or generate the named suite circuit at the requested scale. spec is
// normalized, so a suite circuit's scale is already defaulted.
func resolveNetlist(spec JobSpec) (*netlist.Netlist, error) {
	if spec.Netlist != "" {
		nl, err := netlist.Read(strings.NewReader(spec.Netlist))
		if err != nil {
			return nil, fmt.Errorf("netlist: %w", err)
		}
		return nl, nil
	}
	mc, ok := circuits.ByName(spec.Circuit)
	if !ok {
		return nil, fmt.Errorf("unknown circuit %q", spec.Circuit)
	}
	return circuits.Generate(mc.Spec(spec.Scale))
}
