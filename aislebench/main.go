// Command aislebench is the benchmark of the AISLE federation simulator. It
// drives the federation only through its public Go API, generates each
// workload from --seed, checks that the run is correct, and prints one JSON
// result line last:
//
//	aislebench --workload fleet-saturation --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced passes; --trace 1
// reports the per-layer metrics: counts read from public getters after an
// untraced pass, host ns per operation from probes that call each layer's
// public functions on the workload's shape, and their reconciliation with
// the pass wall time. Run it through run.sh, which builds it first.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// oracle is the bit-exact seed-42 virtual makespan of fleet-saturation,
// the same trajectory the repository's scheduler macro benchmark records.
const (
	oracleSeed     = 42
	oracleMakespan = "4381.113353954"
)

// minSetups is how many federations a run assembles at least, so that
// setup_s is a median over enough samples even when passes are long.
const minSetups = 21

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aislebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds to measure")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, ok := findWorkload(o.workload)
	if !ok || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "aislebench: need --workload (%s), --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	b := &bench{spec: s, opts: o, out: stdout, log: stderr}
	b.stamp()
	res := b.run()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "aislebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// bench is one invocation: a workload, its options and the correctness
// verdict accumulated while it runs.
type bench struct {
	spec spec
	opts options
	out  io.Writer
	log  io.Writer
	bad  []string
}

// stamp pins GOMAXPROCS and prints the environment the figures belong to.
// The optimizer scores candidates on GOMAXPROCS goroutines, so allocation
// figures repeat only at a fixed setting.
func (b *bench) stamp() {
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	env, _ := json.Marshal(map[string]any{"env": map[string]any{
		"go": runtime.Version(), "gomaxprocs": procs, "cpu": cpuModel(),
		"seed": b.opts.seed, "workload": b.spec.name, "trace": b.opts.trace,
	}})
	fmt.Fprintln(b.out, string(env))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		b.bad = append(b.bad, msg)
		fmt.Fprintln(b.log, "aislebench: check failed:", msg)
	}
}

// passStats is what one pass leaves behind once its federation is gone.
type passStats struct {
	setup, drive time.Duration
	allocMB      float64 // TotalAlloc delta over the pass
	heapMB       float64 // HeapAlloc after a forced GC, before Stop
	digest       string
	attempted    int
	failed       int
	experiments  int
	makespan     float64
	lat          []float64
	counts       map[string]float64
}

func (st passStats) wall() time.Duration { return st.setup + st.drive }

// runPass assembles, drives and audits one federation, measuring host
// time, allocation and retained heap from outside.
func runPass(s spec, seed uint64, log *spanLog) (passStats, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	p := setup(s, seed, log)
	t1 := time.Now()
	err := p.drive()
	t2 := time.Now()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	digest := p.digest() // before counts, which expires stale discovery records
	st := passStats{
		setup:       t1.Sub(t0),
		drive:       t2.Sub(t1),
		allocMB:     float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		heapMB:      float64(m1.HeapAlloc) / 1e6,
		digest:      digest,
		attempted:   max(s.campaigns, s.jobs),
		failed:      p.failed,
		experiments: p.experiments,
		makespan:    p.virtualMakespan(),
		lat:         p.lat,
		counts:      p.counts(),
	}
	p.n.Stop()
	return st, err
}

// pass runs one pass and folds its errors and digest into the verdict.
func (b *bench) pass(seed uint64, log *spanLog, ref *passStats) passStats {
	st, err := runPass(b.spec, seed, log)
	b.check(err == nil, "seed %d: %v", seed, err)
	if ref != nil {
		b.check(st.digest == ref.digest, "seed %d: telemetry digest %.12s differs from the first pass's %.12s",
			seed, st.digest, ref.digest)
	}
	return st
}

// run executes the workload in the requested mode and returns the result.
func (b *bench) run() result {
	if b.spec.name == fleet {
		full, _ := findWorkload(fleet)
		st, err := runPass(full, oracleSeed, nil)
		b.check(err == nil, "oracle pass: %v", err)
		got := fmt.Sprintf("%.9f", st.makespan)
		b.check(got == oracleMakespan, "seed-42 virtual makespan %s, want %s", got, oracleMakespan)
	}
	var res result
	if b.opts.trace == 1 {
		res = b.perLayer()
	} else {
		res = b.endToEnd()
	}
	res.Correct = len(b.bad) == 0
	return res
}

// trajectories derives a round's seeds from --seed. One federation's host
// cost and latencies depend on which rare events (instrument failures, lost
// messages) its seed draws, so a round runs several trajectories and
// reports their aggregate.
func (b *bench) trajectories() []uint64 {
	k := max(b.spec.trajectories, 1)
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = b.opts.seed*uint64(k) + uint64(i)
	}
	return seeds
}

// endToEnd runs rounds of untraced passes for the requested seconds after
// one warm-up round, whose passes also give the reference digests and the
// virtual latencies. Host figures are medians over rounds of each round's
// aggregate.
func (b *bench) endToEnd() result {
	seeds := b.trajectories()
	refs := make([]passStats, len(seeds))
	var lat []float64
	for i, seed := range seeds {
		refs[i] = b.pass(seed, nil, nil)
		lat = append(lat, refs[i].lat...)
	}
	res := result{Metrics: map[string]value{}}
	var setups, rates, allocs, heaps []float64
	rounds := 0
	start := time.Now()
	for rounds < 2 || time.Since(start).Seconds() < b.opts.seconds {
		var exps, drive, alloc, heap float64
		for i, seed := range seeds {
			st := b.pass(seed, nil, &refs[i])
			setups = append(setups, st.setup.Seconds())
			exps += float64(st.experiments)
			drive += st.drive.Seconds()
			alloc += st.allocMB
			heap += st.heapMB
			res.Attempted += st.attempted
			res.Failed += st.failed
		}
		k := float64(len(seeds))
		rates = append(rates, exps/drive)
		fmt.Fprintf(b.log, "round %d: %.1f experiments/s, %.2f MB allocated per pass\n", rounds, exps/drive, alloc/k)
		allocs = append(allocs, alloc/k)
		heaps = append(heaps, heap/k)
		rounds++
	}
	for len(setups) < minSetups {
		t := time.Now()
		p := setup(b.spec, seeds[len(setups)%len(seeds)], nil)
		setups = append(setups, time.Since(t).Seconds())
		p.n.Stop()
	}
	figures := map[string]float64{
		"setup_s":           median(setups),
		"experiments_per_s": median(rates),
		"alloc_mb":          median(allocs),
		"retained_heap_mb":  median(heaps),
		"latency_p50_vs":    quantile(lat, 0.5),
		"latency_p95_vs":    quantile(lat, 0.95),
	}
	fmt.Fprintf(b.out, "%s: %d rounds of %d trajectories, %d setups, %d %s latency samples\n",
		b.spec.name, rounds, len(seeds), len(setups), len(lat), b.spec.unit())
	for i, st := range refs {
		fmt.Fprintf(b.out, "  trajectory seed %d: virtual makespan %.9f s\n", seeds[i], st.makespan)
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = value{figures[m.name], m.unit}
		fmt.Fprintf(b.out, "  %-20s %14.6f %s\n", m.name, figures[m.name], m.unit)
	}
	return res
}

// perLayer reports the per-layer figures: counts from the reference pass,
// the traced-pass overhead from alternating untraced and traced passes,
// layer costs from the probes, and their reconciliation with pass wall.
func (b *bench) perLayer() result {
	seed := b.trajectories()[0]
	ref := b.pass(seed, nil, nil) // warm-up, and the reference digest
	var plain, traced []float64
	var log *spanLog
	half := time.Duration(b.opts.seconds / 2 * float64(time.Second))
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < half {
		st := b.pass(seed, nil, &ref)
		plain = append(plain, float64(st.wall().Nanoseconds()))
		log = newSpanLog()
		st = b.pass(seed, log, &ref)
		traced = append(traced, float64(st.wall().Nanoseconds()))
	}
	b.summarize(log)

	cnt := ref.counts
	c := probe(b.spec, seed, cnt, half)
	figures := map[string]float64{}
	for k, v := range cnt {
		figures[k] = v
	}
	for k, v := range map[string]float64{
		"sim.ns_per_event": c.event, "netsim.ns_per_send": c.send, "bus.ns_per_rpc": c.rpc,
		"security.ns_per_verify": c.verify, "discovery.ns_per_browse": c.browse,
		"discovery.ns_per_gossip_round": c.gossip, "sched.ns_per_dispatch": c.dispatch,
		"optimize.ns_per_ask": c.ask, "knowledge.ns_per_merge": c.merge,
		"trace.ns_per_span": c.span, "obs.ns_per_decision": c.decision, "obs.ns_per_sample": c.sample,
	} {
		figures[k] = v
	}
	wall := median(plain)
	sum := 0.0
	for layer, ns := range c.attribution(cnt) {
		figures[layer+".wall_frac"] = ns / wall
		sum += ns
	}
	figures["layers.attributed_frac"] = sum / wall
	figures["trace.overhead_frac"] = median(traced)/wall - 1

	res := result{Attempted: ref.attempted, Failed: ref.failed, Metrics: map[string]value{}}
	fmt.Fprintf(b.out, "%s: %d untraced + %d traced passes, pass wall %.1f ms\n",
		b.spec.name, len(plain), len(traced), wall/1e6)
	for _, m := range perLayer {
		res.Metrics[m.name] = value{figures[m.name], m.unit}
		fmt.Fprintf(b.out, "  %-30s %16.6f %-9s %s layer, moves %s on %s\n",
			m.name, figures[m.name], m.unit, m.layer, m.moves, m.on)
	}
	return res
}

// summarize reports the traced pass's harness spans on stderr.
func (b *bench) summarize(log *spanLog) {
	var slowest span
	var prevEvents, slowestEvents uint64
	for _, sp := range log.spans {
		if sp.Name == "setup" {
			prevEvents = sp.Events
			fmt.Fprintf(b.log, "traced pass: setup %.2f ms, %d sim events\n", float64(sp.End-sp.Start)/1e6, sp.Events)
		}
		if sp.Name != "slice" {
			continue
		}
		if sp.End-sp.Start > slowest.End-slowest.Start {
			slowest, slowestEvents = sp, sp.Events-prevEvents
		}
		prevEvents = sp.Events
	}
	fmt.Fprintf(b.log, "traced pass: %d spans, slowest 10-minute slice %.2f ms with %d sim events\n",
		len(log.spans), float64(slowest.End-slowest.Start)/1e6, slowestEvents)
}
