package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"qolsr/internal/sim"
)

// span is one timed call the benchmark made into a layer's public API.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the tracer was created
	End    float64 `json:"end_s"`
}

// tracer records the spans of one traced run in memory; write flushes them
// when the run ends. A nil *tracer records nothing, which is how untraced runs
// call the same code.
type tracer struct {
	RunID    string `json:"run_id"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`

	t0    time.Time
	stack []int
}

func newTracer(workload string, seed int64) *tracer {
	t0 := time.Now()
	return &tracer{
		RunID:    fmt.Sprintf("%s-%d-%d-%d", workload, seed, os.Getpid(), t0.UnixNano()),
		Workload: workload,
		Seed:     seed,
		t0:       t0,
	}
}

// begin opens a span, nested under the innermost open span, and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.Spans) + 1
	t.Spans = append(t.Spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Seconds()})
	t.stack = append(t.stack, id)
	return func() {
		t.Spans[id-1].End = time.Since(t.t0).Seconds()
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// seconds sums the durations of the spans with the given name.
func (t *tracer) seconds(name string) float64 {
	var s float64
	for _, sp := range t.Spans {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	return s
}

// write stores the run's spans as JSON under dir/traces.
func (t *tracer) write(dir string) error {
	dir = filepath.Join(dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, t.RunID+".json"), data, 0o644)
}

// timedMedium wraps a sim.Medium and times every PlanFrame call as a count
// and a total, without a span per call. It is used on traced runs only: the
// wrapper hides the ideal medium's type, so the network loses its ideal
// data-plane shortcut and plans every data frame through the medium.
type timedMedium struct {
	sim.Medium
	calls uint64
	total time.Duration
}

func (m *timedMedium) PlanFrame(src int32, dsts []int32, size int, now time.Duration) []sim.Hop {
	start := time.Now()
	hops := m.Medium.PlanFrame(src, dsts, size, now)
	m.total += time.Since(start)
	m.calls++
	return hops
}

// statsMedium is a medium with frame accounting; both built-in media are.
type statsMedium interface {
	sim.Medium
	Stats() sim.MediumStats
}

// Stats forwards the wrapped medium's frame accounting.
func (m *timedMedium) Stats() sim.MediumStats {
	if s, ok := m.Medium.(statsMedium); ok {
		return s.Stats()
	}
	return sim.MediumStats{}
}

// mediumLayers reports the medium's counters and, when the medium is
// wrapped, the mean PlanFrame time.
func mediumLayers(med sim.Medium, layers map[string]float64) {
	s, ok := med.(statsMedium)
	if !ok {
		return
	}
	st := s.Stats()
	layers["medium.frames"] = float64(st.FramesPlanned)
	layers["medium.receptions"] = float64(st.Receptions)
	layers["medium.lost"] = float64(st.ReceptionsLost)
	layers["medium.stalled"] = float64(st.FramesStalled)
	if tm, ok := med.(*timedMedium); ok && tm.calls > 0 {
		layers["medium.plan_ns"] = float64(tm.total.Nanoseconds()) / float64(tm.calls)
		layers["medium.plan_ns.calls"] = float64(tm.calls)
	}
}

// runtimeMeter reads runtime/metrics at the start and end of a timed phase.
type runtimeMeter struct{ start []metrics.Sample }

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startRuntimeMeter() *runtimeMeter { return &runtimeMeter{start: readRuntime()} }

// stop records runtime.gc_share (GC CPU over the CPU the process used) and
// runtime.alloc_bytes over the metered interval.
func (r *runtimeMeter) stop(layers map[string]float64) {
	end := readRuntime()
	delta := func(i int) float64 {
		return sampleValue(end[i]) - sampleValue(r.start[i])
	}
	if used := delta(1) - delta(2); used > 0 {
		layers["runtime.gc_share"] = delta(0) / used
	}
	layers["runtime.alloc_bytes"] = delta(3)
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}
