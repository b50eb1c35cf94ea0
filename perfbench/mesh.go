package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"qolsr/internal/node"
)

// daemon-mesh runs 20 node.Daemons on an in-process MemNetwork (no sockets)
// over the ring of the daemon acceptance test: each daemon peers with the
// two nodes on either side, so the diameter is 5. Link weights are declared
// in the peer tables, drawn from the seed. The timed phase starts the
// daemons, waits until every ordered pair holds a route, then drives a
// closed loop: every node keeps meshWindow 64-byte data packets in flight
// toward its antipode until meshPerSource have been delivered or lost.
const (
	meshNodes     = 20
	meshWindow    = 8
	meshPerSource = 1500
	meshBody      = 64
	meshHello     = 100 * time.Millisecond
	meshTC        = 250 * time.Millisecond
	// meshConverge bounds convergence and meshLossTimeout declares the
	// in-flight window of a source lost; on a lossless fabric neither
	// should ever fire.
	meshConverge    = 20 * time.Second
	meshLossTimeout = 2 * time.Second
)

type meshInst struct {
	daemons    []*node.Daemon
	transports []*node.MemTransport
	capture    *frameCapture
	acks       []chan struct{}
}

func meshID(i int) int64 { return int64(i + 1) }

func setupMesh(seed int64, tr *tracer) (instance, error) {
	defer tr.begin("node.New x20")()
	r := rand.New(rand.NewSource(seed))
	weight := map[[2]int]float64{}
	for i := 0; i < meshNodes; i++ {
		for _, d := range []int{1, 2} {
			weight[[2]int{i, (i + d) % meshNodes}] = 1 + float64(r.Intn(90))/10
		}
	}
	linkWeight := func(a, b int) float64 {
		if w, ok := weight[[2]int{a, b}]; ok {
			return w
		}
		return weight[[2]int{b, a}]
	}

	m := &meshInst{acks: make([]chan struct{}, meshNodes)}
	if tr != nil {
		m.capture = &frameCapture{counts: map[node.FrameKind]int{}}
	}
	mn := node.NewMemNetwork()
	addr := func(i int) string { return fmt.Sprintf("n%d", i) }
	for i := 0; i < meshNodes; i++ {
		t, err := mn.Listen(addr(i))
		if err != nil {
			return nil, err
		}
		m.transports = append(m.transports, t)
		// Sized to the window, so a delivery notice never blocks the
		// receiving daemon's loop.
		m.acks[i] = make(chan struct{}, meshWindow)
	}
	for i := 0; i < meshNodes; i++ {
		var peers []node.Peer
		for _, d := range []int{-2, -1, 1, 2} {
			j := ((i+d)%meshNodes + meshNodes) % meshNodes
			peers = append(peers, node.Peer{ID: meshID(j), Addr: addr(j), Weight: linkWeight(i, j)})
		}
		var tp node.Transport = m.transports[i]
		if m.capture != nil {
			tp = &capturingTransport{Transport: tp, c: m.capture}
		}
		d, err := node.New(node.Config{
			ID:            meshID(i),
			Transport:     tp,
			Peers:         peers,
			HelloInterval: meshHello,
			TCInterval:    meshTC,
			OnData: func(src int64, seq uint64, body []byte) {
				select {
				case m.acks[src-1] <- struct{}{}:
				default:
				}
			},
		})
		if err != nil {
			return nil, err
		}
		m.daemons = append(m.daemons, d)
	}
	return m, nil
}

func (m *meshInst) run(tr *tracer) (*outcome, error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait() // runs after cancel: every daemon has exited on return
	defer cancel()

	start := time.Now()
	end := tr.begin("daemon start")
	for _, d := range m.daemons {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = d.Run(ctx) // returns when ctx is cancelled
		}()
	}
	end()

	end = tr.begin("convergence")
	missing, err := m.waitConverged(start)
	end()
	if err != nil {
		return nil, err
	}
	converge := time.Since(start)

	end = tr.begin("closed loop")
	loopStart := time.Now()
	sent, delivered, refused, lost := m.closedLoop()
	loop := time.Since(loopStart)
	end()
	runS := time.Since(start).Seconds()

	routes, stats, err := m.status()
	if err != nil {
		return nil, err
	}
	cancel()
	wg.Wait()

	layers := map[string]float64{
		"node.frames_in":       float64(stats.FramesIn),
		"node.frames_out":      float64(stats.FramesOut),
		"node.decode_errors":   float64(stats.DecodeErrors),
		"node.data_dropped":    float64(stats.DataDropped),
		"node.forwarded":       float64(stats.DataForwarded),
		"node.transport_drops": 0,
	}
	for _, t := range m.transports {
		layers["node.transport_drops"] += float64(t.Drops())
	}
	attempted := meshNodes*(meshNodes-1) + sent
	return &outcome{
		runS: runS,
		e2e: map[string]float64{
			"converge_s":   converge.Seconds(),
			"pkts_per_s":   float64(sent) / loop.Seconds(),
			"frames_per_s": float64(delivered) / loop.Seconds(),
			"delivery":     float64(delivered) / float64(sent),
		},
		layers:    layers,
		output:    routes,
		attempted: attempted,
		failed:    missing + refused + lost,
	}, nil
}

// waitConverged polls every daemon until each holds a route to every other
// node and returns the number of ordered pairs still unrouted at the
// deadline.
func (m *meshInst) waitConverged(start time.Time) (int, error) {
	for {
		missing := 0
		for _, d := range m.daemons {
			st, err := d.Status()
			if err != nil {
				return 0, err
			}
			missing += meshNodes - 1 - len(st.Routes)
		}
		if missing == 0 || time.Since(start) > meshConverge {
			return missing, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// closedLoop runs one sender per node toward its antipode. A sender tops its
// window up after every delivery notice; a Send error counts as refused. A
// sender that gets no notice for meshLossTimeout counts its window and its
// unsent packets as lost and stops.
func (m *meshInst) closedLoop() (sent, delivered, refused, lost int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	body := make([]byte, meshBody)
	for i := range m.daemons {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, dst := m.daemons[i], meshID((i+meshNodes/2)%meshNodes)
			var s, dl, rf, ls, inflight int
			timer := time.NewTimer(meshLossTimeout)
			defer timer.Stop()
			for s < meshPerSource || inflight > 0 {
				for inflight < meshWindow && s < meshPerSource {
					s++
					if err := d.Send(dst, body); err != nil {
						rf++
						continue
					}
					inflight++
				}
				if inflight == 0 {
					continue
				}
				timer.Reset(meshLossTimeout)
				select {
				case <-m.acks[i]:
					inflight--
					dl++
				case <-timer.C:
					// The mesh stopped delivering: count the window and
					// the unsent rest as lost and give up, so a broken
					// mesh fails the run instead of stalling it.
					ls += inflight + meshPerSource - s
					s, inflight = meshPerSource, 0
				}
			}
			mu.Lock()
			sent, delivered, refused, lost = sent+s, delivered+dl, refused+rf, lost+ls
			mu.Unlock()
		}()
	}
	wg.Wait()
	return sent, delivered, refused, lost
}

// status sums the daemons' counters and renders their routing tables, which
// are a deterministic function of the declared weights once converged.
func (m *meshInst) status() (string, node.Stats, error) {
	var b strings.Builder
	var sum node.Stats
	for _, d := range m.daemons {
		st, err := d.Status()
		if err != nil {
			return "", sum, err
		}
		rs := st.Routes
		sort.Slice(rs, func(i, j int) bool { return rs[i].Dst < rs[j].Dst })
		fmt.Fprintf(&b, "%d:", st.ID)
		for _, r := range rs {
			fmt.Fprintf(&b, " %d>%d/%d/%.4g", r.Dst, r.NextHop, r.Hops, r.Value)
		}
		b.WriteString(";")
		s := st.Stats
		sum.FramesIn += s.FramesIn
		sum.FramesOut += s.FramesOut
		sum.DecodeErrors += s.DecodeErrors
		sum.DataDropped += s.DataDropped
		sum.DataForwarded += s.DataForwarded
	}
	return b.String(), sum, nil
}

// replay times the frame and data codecs on frames the traced run sent.
func (m *meshInst) replay(tr *tracer, layers map[string]float64) error {
	defer tr.begin("replay: node codec")()
	raw := m.capture.frames
	if len(raw) == 0 {
		return fmt.Errorf("replay: no frames captured")
	}
	frames := make([]*node.Frame, len(raw))
	for i, b := range raw {
		f, err := node.UnmarshalFrame(b)
		if err != nil {
			return fmt.Errorf("replay: captured frame: %w", err)
		}
		frames[i] = f
	}
	var codecErr error
	note := func(err error) {
		if err != nil && codecErr == nil {
			codecErr = err
		}
	}
	const rounds = 50
	layers["node.unmarshal_ns"], layers["node.unmarshal_ns.calls"] = timeCalls(rounds, len(raw), func(i int) {
		f, err := node.UnmarshalFrame(raw[i])
		note(err)
		if err == nil && f.Kind == node.KindData {
			_, err = node.UnmarshalData(f.Payload)
			note(err)
		}
	})
	layers["node.marshal_ns"], layers["node.marshal_ns.calls"] = timeCalls(rounds, len(frames), func(i int) {
		f := frames[i]
		if f.Kind == node.KindData {
			p, err := node.UnmarshalData(f.Payload)
			note(err)
			if err == nil {
				_, err = node.MarshalData(p)
				note(err)
			}
		}
		_, err := node.MarshalFrame(f)
		note(err)
	})
	return codecErr
}

// frameCapture keeps the first captureFrames control frames and the first
// captureFrames data frames a traced mesh sends, for the codec replays.
type frameCapture struct {
	mu     sync.Mutex
	frames [][]byte
	counts map[node.FrameKind]int
}

const captureFrames = 2048

// capturingTransport records outgoing frames and passes them on unchanged.
type capturingTransport struct {
	node.Transport
	c *frameCapture
}

func (t *capturingTransport) Send(addr string, frame []byte) error {
	if f, err := node.UnmarshalFrame(frame); err == nil {
		t.c.mu.Lock()
		if t.c.counts[f.Kind] < captureFrames {
			t.c.counts[f.Kind]++
			t.c.frames = append(t.c.frames, append([]byte(nil), frame...))
		}
		t.c.mu.Unlock()
	}
	return t.Transport.Send(addr, frame)
}

func checkMesh(seed int64, out *outcome, c *checker) {
	c.check(out.e2e["delivery"] > 0.99, "daemon-mesh: delivery %.4f below 0.99", out.e2e["delivery"])
	c.check(out.layers["node.forwarded"] > 0, "daemon-mesh: no daemon forwarded data")
	c.check(strings.Count(out.output, ">") == meshNodes*(meshNodes-1), "daemon-mesh: routing tables incomplete")
	if seed == 1 {
		c.check(golden("daemon-mesh", out.output), "daemon-mesh seed 1: routes %s differ from the pinned golden", out.output)
	}
}
