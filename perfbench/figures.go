package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"qolsr"
	"qolsr/internal/core"
	"qolsr/internal/eval"
	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/netgen"
	"qolsr/internal/rng"
	"qolsr/internal/route"
)

// figures runs the paper evaluator through the public Experiment API: Figs. 8
// and 9 (bandwidth and delay overhead, so both the concave and the additive
// paths) over their full density axes with every paper selector, one run per
// density point and one worker. Fields are Poisson draws whose cost varies
// widely, so one timed phase sweeps figureSweeps independent sub-seeds of the
// seed and reports the median sweep.
const figureSweeps = 5

var figureIDs = []string{"fig8", "fig9"}

type figuresInst struct {
	seed int64
	exp  *qolsr.Experiment
}

func setupFigures(seed int64, tr *tracer) (instance, error) {
	defer tr.begin("qolsr.ExperimentByID")()
	exp, err := qolsr.ExperimentByID(figureIDs...)
	if err != nil {
		return nil, err
	}
	return &figuresInst{seed: seed, exp: exp}, nil
}

func (s *figuresInst) run(tr *tracer) (*outcome, error) {
	var sweepS, firstFigureS, pairsPerS, deliveredPerS []float64
	var pairs, delivered float64
	// Pooled overhead (mean regret over delivered pairs) per protocol.
	regret, regretN := map[string]float64{}, map[string]float64{}
	var b strings.Builder
	for k := 0; k < figureSweeps; k++ {
		end := tr.begin("qolsr.Experiment.Stream")
		sweepStart := time.Now()
		var firstFigure time.Duration
		events, wait := s.exp.Stream(context.Background(),
			qolsr.WithRuns(1), qolsr.WithSeed(int64(rng.Mix(uint64(s.seed), uint64(k)))), qolsr.WithWorkers(1))
		for ev := range events {
			if ev.Kind == qolsr.EventFigure && firstFigure == 0 {
				firstFigure = time.Since(sweepStart)
			}
		}
		res, err := wait()
		el := time.Since(sweepStart).Seconds()
		end()
		if err != nil {
			return nil, err
		}
		var p, d float64
		for _, fr := range res.Figures {
			fmt.Fprintf(&b, "%s:", fr.Figure.ID)
			for i, pt := range fr.Points {
				for _, name := range fr.ProtocolNames() {
					pp := pt.Protocols[name]
					n := float64(pp.Delivery.N())
					p += n
					d += pp.Delivery.Mean() * n
					if on := pp.Overhead.N(); on > 0 {
						regret[name] += pp.Overhead.Mean() * float64(on)
						regretN[name] += float64(on)
					}
					fmt.Fprintf(&b, " %s@%g=%.6g", name, pt.Degree, fr.Value(i, name))
				}
			}
			b.WriteString("; ")
		}
		pairs += p
		delivered += d
		sweepS = append(sweepS, el)
		firstFigureS = append(firstFigureS, firstFigure.Seconds())
		pairsPerS = append(pairsPerS, p/el)
		deliveredPerS = append(deliveredPerS, d/el)
	}
	return &outcome{
		runS: median(sweepS),
		e2e: map[string]float64{
			"converge_s":   median(firstFigureS),
			"pkts_per_s":   median(pairsPerS),
			"frames_per_s": median(deliveredPerS),
			"delivery":     delivered / pairs,
		},
		layers: map[string]float64{
			"pairs":          pairs,
			"fnbp_overhead":  regret["fnbp"] / regretN["fnbp"],
			"qolsr_overhead": regret["qolsr"] / regretN["qolsr"],
		},
		output: b.String(),
	}, nil
}

// replay times the evaluator's unit operations on fields drawn like the
// figures' own (paper deployment, middle of the density axis, this seed).
func (s *figuresInst) replay(tr *tracer, layers map[string]float64) error {
	defer tr.begin("replay: evaluator")()
	var build time.Duration
	for _, id := range figureIDs {
		fig, err := eval.FigureByID(id)
		if err != nil {
			return err
		}
		deg := fig.Degrees[len(fig.Degrees)/2]
		start := time.Now()
		end := tr.begin("netgen.Build")
		g, err := netgen.Build(geom.PaperDeployment(deg), fig.Metric.Name(), metric.DefaultInterval(),
			rand.New(rand.NewSource(eval.RunSeed(s.seed, deg, 0))))
		end()
		build += time.Since(start)
		if err != nil {
			return err
		}
		// Both figures share the layer metrics; the last figure's
		// (delay, the additive path) are the ones reported.
		if err := graphReplays(g, fig.Metric, layers); err != nil {
			return err
		}
	}
	layers["netgen.build_s"] = build.Seconds() / float64(len(figureIDs))
	return nil
}

// graphReplays times one full Dijkstra from every node (graph.spf_ns), every
// selector on every node's local view (core.select_ns.<selector>) and
// route.EvaluatePair over the FNBP-advertised topology (route.eval_ns) on g
// under metric m.
func graphReplays(g *graph.Graph, m metric.Metric, layers map[string]float64) error {
	w, err := g.Weights(m.Name())
	if err != nil {
		return err
	}
	n := g.N()
	layers["graph.spf_ns"], layers["graph.spf_ns.calls"] = timeCalls(1, n, func(i int) {
		graph.Dijkstra(g, m, w, int32(i), nil, -1)
	})
	views := make([]*graph.LocalView, n)
	for u := range views {
		views[u] = graph.NewLocalView(g, int32(u))
	}
	var fnbpSets [][]int32
	for _, name := range []string{"fnbp", "topofilter", "qolsr"} {
		sel, err := core.ByName(name)
		if err != nil {
			return err
		}
		sets := make([][]int32, n)
		var selErr error
		layers["core.select_ns."+name], layers["core.select_ns."+name+".calls"] = timeCalls(1, n, func(i int) {
			set, err := sel.Select(views[i], m, w)
			if err != nil && selErr == nil {
				selErr = err
			}
			sets[i] = set
		})
		if selErr != nil {
			return fmt.Errorf("replay %s: %w", name, selErr)
		}
		if name == "fnbp" {
			fnbpSets = sets
		}
	}
	adv, err := route.BuildAdvertised(g, fnbpSets, m.Name())
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(int64(n)))
	reach := graph.Reachable(g, 0)
	var pairs [][2]int32
	for len(pairs) < 256 {
		a, b := int32(r.Intn(n)), int32(r.Intn(n))
		if a != b && reach[a] && reach[b] {
			pairs = append(pairs, [2]int32{a, b})
		}
	}
	var evalErr error
	layers["route.eval_ns"], layers["route.eval_ns.calls"] = timeCalls(1, len(pairs), func(i int) {
		if _, err := route.EvaluatePair(g, adv, m, m.Name(), pairs[i][0], pairs[i][1], route.QoSOptimal); err != nil && evalErr == nil {
			evalErr = err
		}
	})
	if evalErr != nil {
		return fmt.Errorf("replay route eval: %w", evalErr)
	}
	return nil
}

func checkFigures(seed int64, out *outcome, c *checker) {
	c.check(out.layers["pairs"] > 0, "figures: no pairs evaluated")
	c.check(out.e2e["delivery"] > 0.9, "figures: delivery %.4f below 0.9", out.e2e["delivery"])
	// The headline claim of Figs. 8-9: FNBP's regret is far below QOLSR's.
	f, q := out.layers["fnbp_overhead"], out.layers["qolsr_overhead"]
	c.check(f < q/2, "figures: pooled fnbp overhead %.4g not below half of qolsr's %.4g", f, q)
	if seed == 1 {
		c.check(golden("figures", out.output), "figures seed 1: output %s differs from the pinned golden", out.output)
	}
}
