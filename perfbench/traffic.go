package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/metric"
	"qolsr/internal/olsr"
	"qolsr/internal/rng"
	"qolsr/internal/sim"
	"qolsr/internal/traffic"
)

// traffic-lossy runs sustained flows over the field and flow endpoints of the
// traffic engine's Go benchmark (50 nodes, fixed positions, endpoint k is
// (k mod 50, 7k+13 mod 50)) on the lossy medium. The seed keys the medium's
// loss and jitter draws, the emission jitter and the packet arrivals; the
// field and endpoints stay fixed so that every seed offers the same load.
const (
	lossyNodes    = 50
	lossyLoss     = 0.05
	lossyConverge = 15 * time.Second
	lossyTraffic  = 1200 * time.Second
	lossyRate     = 16384
	lossyPerClass = 16
)

type lossyInst struct {
	seed   int64
	nw     *sim.Network
	medium sim.Medium
	pairs  [][2]int32
}

func setupLossy(seed int64, tr *tracer) (instance, error) {
	field := geom.Field{Width: 600, Height: 600}
	r := rand.New(rand.NewSource(12))
	pts := make([]geom.Point, lossyNodes)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * field.Width, Y: r.Float64() * field.Height}
	}
	end := tr.begin("sim.UnitDiskTopology")
	g, err := sim.UnitDiskTopology(field, 160, pts, "bandwidth", 12)
	end()
	if err != nil {
		return nil, err
	}
	var med sim.Medium = sim.NewLossyMedium(sim.LossyConfig{Loss: lossyLoss, Seed: int64(rng.Mix(uint64(seed), 1))})
	if tr != nil {
		med = &timedMedium{Medium: med}
	}
	end = tr.begin("sim.NewNetwork")
	nw, err := sim.NewNetwork(g, olsr.DefaultConfig(metric.Bandwidth()), sim.NetworkOptions{
		Seed: int64(rng.Mix(uint64(seed), 2)), Medium: med,
	})
	end()
	if err != nil {
		return nil, err
	}
	pairs := make([][2]int32, 2*lossyPerClass)
	for k := range pairs {
		pairs[k] = [2]int32{int32(k % lossyNodes), int32((k*7 + 13) % lossyNodes)}
	}
	return &lossyInst{seed: seed, nw: nw, medium: med, pairs: pairs}, nil
}

func (s *lossyInst) run(tr *tracer) (*outcome, error) {
	defer tr.begin("traffic-lossy")()
	start := time.Now()
	end := tr.begin("warmup: Network.Start+Run")
	s.nw.Start()
	s.nw.Run(lossyConverge)
	end()
	converge := time.Since(start)

	eng := traffic.NewEngine(s.nw, int64(rng.Mix(uint64(s.seed), 4)))
	flows, err := traffic.FlowsFromSpecs([]traffic.Spec{
		{Class: traffic.ClassCBR, Count: lossyPerClass, RateBps: lossyRate},
		{Class: traffic.ClassVideo, Count: lossyPerClass, RateBps: lossyRate},
	}, s.pairs, s.nw.Engine.Now())
	if err != nil {
		return nil, err
	}
	for _, f := range flows {
		if err := eng.Add(f); err != nil {
			return nil, err
		}
	}
	stop := s.nw.Engine.Now() + lossyTraffic
	if err := eng.Start(stop); err != nil {
		return nil, err
	}
	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	dataStart := time.Now()
	end = tr.begin("traffic: Network.Run")
	s.nw.Run(stop + time.Second)
	end()
	data := time.Since(dataStart)
	runS := time.Since(start).Seconds()
	layers := map[string]float64{}
	if tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		if sent := eng.Counters().Sent; sent > 0 {
			layers["traffic.allocs_per_pkt"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(sent)
		}
		layers["sim.warmup_s"] = tr.seconds("warmup: Network.Start+Run")
		layers["sim.data_s"] = tr.seconds("traffic: Network.Run")
	}

	rep := eng.Report()
	cnt := eng.Counters()
	ms := s.medium.(statsMedium).Stats()
	out := &outcome{
		runS: runS,
		e2e: map[string]float64{
			"converge_s":   converge.Seconds(),
			"pkts_per_s":   float64(cnt.Sent) / data.Seconds(),
			"frames_per_s": float64(cnt.Delivered) / data.Seconds(),
			"delivery":     float64(cnt.Delivered) / float64(cnt.Sent),
		},
		layers: layers,
		output: fmt.Sprintf("events=%d sent=%d completed=%d delivered=%d bytes=%d admitted=%d data=%+v medium=%+v",
			s.nw.Engine.Executed, cnt.Sent, cnt.Completed, cnt.Delivered, cnt.BytesDelivered,
			rep.Total.Admitted, s.nw.Data, ms),
	}
	layers["completed"] = float64(cnt.Completed)
	simLayers(s.nw, runS, layers)
	trafficLayers(eng, rep, layers)
	mediumLayers(s.medium, layers)
	return out, nil
}

func checkLossy(seed int64, out *outcome, c *checker) {
	l := out.layers
	c.check(l["traffic.sent"] > 0 && l["completed"] == l["traffic.sent"],
		"traffic-lossy: %v of %v packets completed after the drain", l["completed"], l["traffic.sent"])
	c.check(l["traffic.delivered"] <= l["traffic.sent"], "traffic-lossy: delivered %v > sent %v", l["traffic.delivered"], l["traffic.sent"])
	c.check(l["traffic.admitted"] == 2*lossyPerClass, "traffic-lossy: %v of %d flows admitted", l["traffic.admitted"], 2*lossyPerClass)
	c.check(out.e2e["delivery"] > 0.5, "traffic-lossy: delivery %.4f below 0.5", out.e2e["delivery"])
	if seed == 1 {
		c.check(golden("traffic-lossy", out.output), "traffic-lossy seed 1: output %s differs from the pinned golden", out.output)
	}
}
