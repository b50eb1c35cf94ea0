package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"qolsr/internal/eval"
	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/netgen"
	"qolsr/internal/olsr"
	"qolsr/internal/rng"
	"qolsr/internal/sim"
	"qolsr/internal/traffic"
)

// scale-2500 is the S1 live-stack point of the scale sweep
// (eval.RunScaleSweep) at 2,500 nodes, rebuilt here from the same public
// calls and seed derivation so that each phase can be timed and traced.
// Seed s reproduces the sweep's point for -seed s.
const (
	scaleNodes   = 2500
	scaleDegree  = 10
	scaleRadius  = 100
	scaleFlows   = 32
	scaleRate    = 16384
	scaleWarmup  = 10 * time.Second
	scaleTraffic = 10 * time.Second
)

type scaleInst struct {
	fieldSeed int64
	g         *graph.Graph
	nw        *sim.Network
	medium    sim.Medium
	pairs     [][2]int32
}

func setupScale(seed int64, tr *tracer) (instance, error) {
	fieldSeed := eval.RunSeed(seed, scaleNodes, 0)
	fieldRNG := rand.New(rand.NewSource(fieldSeed))
	side := scaleRadius * math.Sqrt(math.Pi*scaleNodes/scaleDegree)
	field := geom.Field{Width: side, Height: side}
	pts := make([]geom.Point, scaleNodes)
	for i := range pts {
		pts[i] = geom.Point{X: fieldRNG.Float64() * side, Y: fieldRNG.Float64() * side}
	}
	end := tr.begin("netgen.FromPoints")
	g, err := netgen.FromPoints(field, scaleRadius, pts, "bandwidth", metric.DefaultInterval(), fieldRNG)
	end()
	if err != nil {
		return nil, err
	}
	s := &scaleInst{
		fieldSeed: fieldSeed,
		g:         g,
		pairs:     sim.DrawPairs(g.N(), scaleFlows, int64(rng.Mix(uint64(fieldSeed), 0x5CA1E))),
	}
	opts := sim.NetworkOptions{Seed: eval.RunSeed(fieldSeed, scaleNodes, 0)}
	if tr != nil {
		opts.Medium = &timedMedium{Medium: sim.NewIdealMedium(sim.DefaultPropDelay)}
	}
	end = tr.begin("sim.NewNetwork")
	s.nw, err = sim.NewNetwork(g, olsr.DefaultConfig(metric.Bandwidth()), opts)
	end()
	if err != nil {
		return nil, err
	}
	s.medium = s.nw.Medium()
	return s, nil
}

func (s *scaleInst) run(tr *tracer) (*outcome, error) {
	defer tr.begin("scale-2500")()
	var paused time.Duration
	layers := map[string]float64{}
	start := time.Now()

	end := tr.begin("warmup: Network.Start+Run")
	s.nw.Start()
	s.nw.Run(scaleWarmup)
	end()
	converge := time.Since(start)

	if tr != nil {
		// Per-node heap after convergence, off the clock: a forced GC is not
		// part of the workload.
		p := time.Now()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		layers["olsr.heap_per_node_b"] = float64(ms.HeapAlloc) / scaleNodes
		paused += time.Since(p)
	}

	end = tr.begin("sim.Network.RebuildRoutes")
	_, err := s.nw.RebuildRoutes(flowSources(s.pairs), 1)
	end()
	if err != nil {
		return nil, err
	}
	eng := traffic.NewEngine(s.nw, int64(rng.Mix(uint64(s.fieldSeed), 0x5CA1E, 0)))
	for i, pr := range s.pairs {
		if err := eng.Add(traffic.Flow{
			ID: i, Class: traffic.ClassCBR, Src: pr[0], Dst: pr[1],
			RateBps: scaleRate, PacketBytes: traffic.DefaultPacketBytes, Start: scaleWarmup,
		}); err != nil {
			return nil, err
		}
	}
	stop := scaleWarmup + scaleTraffic
	if err := eng.Start(stop); err != nil {
		return nil, err
	}
	end = tr.begin("traffic: Network.Run")
	s.nw.Run(stop)
	end()
	runS := (time.Since(start) - paused).Seconds()

	rep := eng.Report()
	cnt := eng.Counters()
	st := s.nw.Stats
	// Admission control rejects a seed-dependent share of the flows, so
	// the packet rates count every transmission, control included: this
	// workload is the control plane's.
	ms := s.medium.(statsMedium).Stats()
	out := &outcome{
		runS: runS,
		e2e: map[string]float64{
			"converge_s":   converge.Seconds(),
			"pkts_per_s":   float64(st.HelloMessages+st.TCMessages+cnt.Sent) / runS,
			"frames_per_s": float64(ms.Receptions) / runS,
			"delivery":     rep.Total.Delivery,
		},
		layers: layers,
	}
	layers["edges"] = float64(s.g.M())
	out.output = fmt.Sprintf("edges=%d events=%d heap_hw=%d sent=%d delivered=%d hello=%d tc=%d ctrl_bytes=%d rebuild=%+v",
		s.g.M(), s.nw.Engine.Executed, s.nw.Engine.HeapHighWater, cnt.Sent, cnt.Delivered,
		s.nw.Stats.HelloMessages, s.nw.Stats.TCMessages, s.nw.Stats.HelloBytes+s.nw.Stats.TCBytes, s.nw.RebuildTotals())
	simLayers(s.nw, runS, layers)
	trafficLayers(eng, rep, layers)
	mediumLayers(s.medium, layers)
	if tr != nil {
		layers["sim.warmup_s"] = tr.seconds("warmup: Network.Start+Run")
		layers["sim.rebuild_s"] = tr.seconds("sim.Network.RebuildRoutes")
		layers["sim.data_s"] = tr.seconds("traffic: Network.Run")
		layers["netgen.build_s"] = tr.seconds("netgen.FromPoints")
	}
	return out, nil
}

// replay times unit calls into olsr on the converged field. The refresh
// path: each sampled node's own GenerateHello/GenerateTC output is handed to
// one of its neighbours, which re-ingests unchanged content. The change
// path: a link-weight change followed by ANS reselection, and a changed
// advertised set followed by a routing-table rebuild.
func (s *scaleInst) replay(tr *tracer, layers map[string]float64) error {
	defer tr.begin("replay: olsr")()
	now := s.nw.Engine.Now()
	type tcIn struct {
		rx     *olsr.Node
		tc     *olsr.TC
		sender int64
	}
	type helloIn struct {
		rx    *olsr.Node
		hello *olsr.Hello
	}
	type linkIn struct {
		n      *olsr.Node
		nb     int64
		w0, w1 float64
	}
	type changeIn struct {
		tcIn
		alt       *olsr.TC
		ansn, seq uint16
	}
	var (
		tcs    []tcIn
		hellos []helloIn
		links  []linkIn
		chg    []changeIn
	)
	n := s.g.N()
	for u := 0; u < n; u += n / 64 {
		arcs := s.g.Arcs(int32(u))
		if len(arcs) == 0 {
			continue
		}
		node, nb := s.nw.Nodes[u], s.nw.Nodes[arcs[0].To]
		// Refresh: nb hears u's unchanged HELLO and TC directly from u.
		hellos = append(hellos, helloIn{nb, node.GenerateHello(now)})
		tcs = append(tcs, tcIn{nb, node.GenerateTC(now), node.ID})
		// Change: the weight of u's link to nb alternates between two
		// values, and u hears, through nb, TCs from the node across the
		// field whose advertised set alternates between the full set and
		// the set minus its last link.
		if w, ok := node.LinkWeight(nb.ID, now); ok {
			links = append(links, linkIn{node, nb.ID, w, w * 1.5})
		}
		full := s.nw.Nodes[(u+n/2)%n].GenerateTC(now)
		if len(full.Links) >= 2 {
			cut := *full
			cut.Links = full.Links[:len(full.Links)-1]
			chg = append(chg, changeIn{tcIn{node, full, nb.ID}, &cut, full.ANSN, full.Seq})
		}
	}
	const rounds, changeRounds = 200, 20
	layers["olsr.handle_hello_ns"], layers["olsr.handle_hello_ns.calls"] = timeCalls(rounds, len(hellos), func(i int) {
		hellos[i].rx.HandleHello(hellos[i].hello, now)
	})
	layers["olsr.handle_tc_ns"], layers["olsr.handle_tc_ns.calls"] = timeCalls(rounds, len(tcs), func(i int) {
		tcs[i].rx.HandleTC(tcs[i].tc, tcs[i].sender, now)
	})
	layers["olsr.recompute_ns"], layers["olsr.recompute_ns.calls"] = timeCalls(changeRounds, len(links), func(i int) {
		l := &links[i]
		l.n.UpdateLink(l.nb, l.w1, now)
		l.n.ANS(now)
		l.w0, l.w1 = l.w1, l.w0
	})
	var routesErr error
	layers["olsr.routes_ns"], layers["olsr.routes_ns.calls"] = timeCalls(changeRounds, len(chg), func(i int) {
		c := &chg[i]
		c.ansn++
		c.seq++
		c.tc, c.alt = c.alt, c.tc
		c.tc.ANSN, c.tc.Seq = c.ansn, c.seq
		c.rx.HandleTC(c.tc, c.sender, now)
		if _, err := c.rx.Routes(now); err != nil && routesErr == nil {
			routesErr = err
		}
	})
	return routesErr
}

// timeCalls runs f over n captured inputs, rounds times, and returns the mean
// nanoseconds per call and the call count.
func timeCalls(rounds, n int, f func(i int)) (float64, float64) {
	if n == 0 {
		return 0, 0
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			f(i)
		}
	}
	calls := rounds * n
	return float64(time.Since(start).Nanoseconds()) / float64(calls), float64(calls)
}

// simLayers reads the simulator's public counters.
func simLayers(nw *sim.Network, runS float64, layers map[string]float64) {
	layers["des.events"] = float64(nw.Engine.Executed)
	layers["des.events_per_s"] = float64(nw.Engine.Executed) / runS
	layers["des.heap_hw"] = float64(nw.Engine.HeapHighWater)
	ctrlLayers(nw.Stats, nw.RebuildTotals(), layers)
}

func ctrlLayers(st sim.TrafficStats, rb olsr.RebuildStats, layers map[string]float64) {
	layers["sim.hello_msgs"] = float64(st.HelloMessages)
	layers["sim.tc_msgs"] = float64(st.TCMessages)
	layers["sim.tc_fwd_msgs"] = float64(st.TCForwarded)
	layers["sim.ctrl_bytes"] = float64(st.HelloBytes + st.TCBytes)
	layers["sim.dup_suppressed"] = float64(st.DupSuppressed)
	layers["olsr.topo_builds"] = float64(rb.TopoBuilds)
	layers["olsr.spf_full"] = float64(rb.SPFFull)
	layers["olsr.spf_incremental"] = float64(rb.SPFIncremental)
	if ann := rb.AdvRefresh + rb.AdvChange; ann > 0 {
		layers["olsr.shared_adv_rate"] = float64(rb.AdvShared) / float64(ann)
	}
}

// trafficLayers reads the flow engine's packet totals and admission counts.
func trafficLayers(eng *traffic.Engine, rep *traffic.Report, layers map[string]float64) {
	c := eng.Counters()
	layers["traffic.sent"] = float64(c.Sent)
	layers["traffic.delivered"] = float64(c.Delivered)
	layers["traffic.admitted"] = float64(rep.Total.Admitted)
	layers["traffic.rejected"] = float64(rep.Total.Flows - rep.Total.Admitted)
}

// flowSources returns the unique flow sources in ascending index order.
func flowSources(pairs [][2]int32) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, p := range pairs {
		if !seen[p[0]] {
			seen[p[0]] = true
			out = append(out, p[0])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func checkScale(seed int64, out *outcome, c *checker) {
	d := out.e2e["delivery"]
	c.check(d > 0.95 && d <= 1, "scale-2500: delivery %.4f outside (0.95, 1]", d)
	if seed == 1 {
		// The recorded S1 point (BENCH_core.json, scale-2500).
		c.check(out.layers["des.events"] == 11268461, "scale-2500 seed 1: events %v, want 11268461", out.layers["des.events"])
		c.check(out.layers["edges"] == 12358, "scale-2500 seed 1: edges %v, want 12358", out.layers["edges"])
		c.check(math.Round(d*1000)/1000 == 0.996, "scale-2500 seed 1: delivery %.4f, want 0.996", d)
		c.check(golden("scale-2500", out.output), "scale-2500 seed 1: output %s differs from the pinned golden", out.output)
	}
}
