package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// workload is one named benchmark input. setup builds a fresh instance from
// the seed (tr is nil on untraced runs); check validates one outcome.
type workload struct {
	name  string
	setup func(seed int64, tr *tracer) (instance, error)
	check func(seed int64, out *outcome, c *checker)
}

// instance is one set-up copy of a workload, consumed by a single timed
// phase.
type instance interface {
	run(tr *tracer) (*outcome, error)
}

// replayer is implemented by instances that time unit calls into the public
// functions of their layers after a traced run, on inputs captured from the
// instance's own converged state.
type replayer interface {
	replay(tr *tracer, layers map[string]float64) error
}

// outcome is what one timed phase produced.
type outcome struct {
	// runS is the wall time of the timed phase.
	runS float64
	// e2e holds the end-to-end metrics other than run_s, setup_s and
	// peak_rss_mb.
	e2e map[string]float64
	// output is a deterministic summary of the results: two runs of one
	// seed must produce identical strings.
	output string
	// layers holds per-layer counters read from the layers' public stats.
	layers map[string]float64
	// attempted and failed count operations checked by the run itself
	// (daemon-mesh data packets and route checks).
	attempted, failed int
}

// checker counts output checks; a failed check is a failed operation.
type checker struct {
	attempted, failed int
	notes             []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// result is the final stdout line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minSetupSample is the shortest wall time one setup_s sample covers: faster
// set-ups are repeated within a sample and averaged, so microsecond set-ups
// are not lost in timer and garbage-collection noise.
const minSetupSample = 100 * time.Millisecond

// setupReps is how many setup_s samples a run takes before its first timed
// phase; every later timed phase adds one more.
const setupReps = 5

// timeSetup builds one instance and returns it with its set-up wall time.
// Every sample starts from a collected heap.
func timeSetup(w *workload, seed int64) (instance, float64, error) {
	runtime.GC()
	start := time.Now()
	n := 0
	var inst instance
	for {
		var err error
		inst, err = w.setup(seed, nil)
		if err != nil {
			return nil, 0, err
		}
		n++
		if el := time.Since(start); el >= minSetupSample {
			return inst, el.Seconds() / float64(n), nil
		}
	}
}

// runUntraced measures the end-to-end metrics of one workload: setup_s is the
// median of several set-ups, and the timed phase repeats on fresh instances
// until the run has measured for about seconds. Every other metric is the
// median over the timed phases; peak_rss_mb is each phase's peak resident
// set, the instance it runs on included.
func runUntraced(w *workload, seed int64, seconds float64, c *checker, outDir string) (map[string]float64, error) {
	var setups, rss []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		in, s, err := timeSetup(w, seed)
		if err != nil {
			return nil, err
		}
		inst = in
		setups = append(setups, s)
	}

	var outs []*outcome
	start := time.Now()
	for {
		// Each timed phase gets its own peak-RSS mark.
		resetPeakRSS()
		out, err := inst.run(nil)
		if err != nil {
			return nil, err
		}
		rss = append(rss, peakRSSMB())
		outs = append(outs, out)
		inst = nil
		fmt.Fprintf(os.Stderr, "%s: timed phase %d: %.4fs\n", w.name, len(outs), out.runS)
		// Stop once another timed phase would end further past the
		// deadline than the run now falls short of it.
		el := time.Since(start).Seconds()
		if el+el/float64(len(outs))/2 >= seconds {
			break
		}
		in, s, err := timeSetup(w, seed)
		if err != nil {
			return nil, err
		}
		inst = in
		setups = append(setups, s)
	}

	for i, out := range outs {
		w.check(seed, out, c)
		c.attempted += out.attempted
		c.failed += out.failed
		if i > 0 {
			c.check(out.output == outs[0].output, "%s: timed phase %d output differs from phase 0:\n  %s\n  %s",
				w.name, i, out.output, outs[0].output)
		}
	}
	checkCached(w.name, seed, outs[0].output, c, outDir)

	m := map[string]float64{
		"setup_s":     median(setups),
		"run_s":       median(field(outs, func(o *outcome) float64 { return o.runS })),
		"peak_rss_mb": median(rss),
	}
	for k := range outs[0].e2e {
		m[k] = median(field(outs, func(o *outcome) float64 { return o.e2e[k] }))
	}
	return m, nil
}

// runTraced measures the per-layer metrics: one untraced timed phase gives
// the reference run_s for the tracing overhead, then one traced timed phase
// runs under spans, the timing medium/transport wrappers and the CPU
// profile, and the instance's replays follow it.
func runTraced(w *workload, seed int64, c *checker, outDir string) (map[string]float64, error) {
	ref, err := w.setup(seed, nil)
	if err != nil {
		return nil, err
	}
	refOut, err := ref.run(nil)
	if err != nil {
		return nil, err
	}
	ref = nil
	runtime.GC()

	tr := newTracer(w.name, seed)
	inst, err := w.setup(seed, tr)
	if err != nil {
		return nil, err
	}
	rt := startRuntimeMeter()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	out, err := inst.run(tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	layers := map[string]float64{}
	rt.stop(layers)
	for k, v := range out.layers {
		layers[k] = v
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		layers[k] = v
	}
	if r, ok := inst.(replayer); ok {
		if err := r.replay(tr, layers); err != nil {
			return nil, err
		}
	}
	layers["trace.overhead_s"] = out.runS - refOut.runS

	for _, o := range []*outcome{refOut, out} {
		w.check(seed, o, c)
		c.attempted += o.attempted
		c.failed += o.failed
	}
	c.check(out.output == refOut.output, "%s: traced output differs from untraced:\n  %s\n  %s",
		w.name, out.output, refOut.output)
	checkCached(w.name, seed, refOut.output, c, outDir)
	if err := tr.write(outDir); err != nil {
		return nil, err
	}
	return layers, nil
}

// checkCached compares a run's output with the output an earlier run of the
// same binary and seed recorded in outDir, so workloads whose run holds a
// single timed phase are still checked for repeatability across runs.
func checkCached(name string, seed int64, output string, c *checker, outDir string) {
	id, err := binaryID()
	if err != nil {
		return
	}
	dir := filepath.Join(outDir, "outputs")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.txt", name, seed, id))
	prev, err := os.ReadFile(path)
	if err == nil {
		c.check(string(prev) == output, "%s: output differs from an earlier run of seed %d:\n  %s\n  %s",
			name, seed, output, prev)
		return
	}
	if os.MkdirAll(dir, 0o755) == nil {
		_ = os.WriteFile(path, []byte(output), 0o644) // best effort: a missing cache only skips a check
	}
}

// binaryID hashes the running executable, so cached outputs are only
// compared between runs of the same program.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func field(outs []*outcome, f func(*outcome) float64) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = f(o)
	}
	return v
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
