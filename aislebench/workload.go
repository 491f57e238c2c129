package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/aisle-sim/aisle/internal/chaos"
	"github.com/aisle-sim/aisle/internal/core"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/knowledge"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/obs"
	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/sched"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/trace"
	"github.com/aisle-sim/aisle/internal/twin"
)

// spec is one workload's shape. Campaign workloads set campaigns; the chaos
// workload sets jobs, which arrive open-loop over the horizon.
type spec struct {
	name string
	why  string
	// trajectories is how many seeds one end-to-end round runs.
	trajectories int

	sites       int
	reactors    int  // fluidic reactors per site
	formulation bool // one electrolyte formulation station per site
	// reliable turns the reactors' random failures off, so a 30-minute
	// repair stall does not decide the workload's latency tail.
	reliable  bool
	zeroTrust bool
	knowledge bool // shared knowledge; campaigns also set UseKnowledge
	observe   bool // program tracing and the health engine

	campaigns   int
	budget      int
	parallelism int
	timeout     sim.Time // per-experiment instrument timeout; 0 keeps the 48h default
	// perExperiment samples latency per scheduled experiment (first
	// submission to completion) instead of per campaign, for workloads
	// with too few campaigns to give a 95th percentile.
	perExperiment bool

	jobs      int
	horizon   sim.Time
	intensity float64
}

var workloads = []spec{
	{
		name:  "fleet-saturation",
		why:   "200 closed-loop campaigns (budget 6, Parallelism 4) on 8 reactors: scheduler routing and discovery browse dominate; carries the bit-exact seed-42 makespan oracle",
		sites: 4, reactors: 2,
		campaigns: 200, budget: 6, parallelism: 4, trajectories: 16,
	},
	{
		name:  "serial-campaigns",
		why:   "the same 200 campaigns at Parallelism 1 take the direct path that never calls the scheduler: spine bound (sim, netsim, bus, gossip) and the scheduler's control",
		sites: 4, reactors: 2,
		campaigns: 200, budget: 6, parallelism: 1, timeout: 4 * sim.Hour, trajectories: 32,
	},
	{
		name:  "deep-search",
		why:   "8 campaigns of budget 128 with shared knowledge on failure-free reactors: the GP grows past n=128, so optimize dominates; control for spine and scheduler changes",
		sites: 4, reactors: 2, knowledge: true, reliable: true,
		campaigns: 8, budget: 128, parallelism: 4, timeout: sim.Hour, perExperiment: true, trajectories: 4,
	},
	{
		name:  "chaos-federation",
		why:   "4000 open-loop jobs over 24h on 8 zero-trust sites under a fixed 15% fault scenario: the only run of security, retries, rescues, quarantine, trace and obs",
		sites: 8, reactors: 2, formulation: true, zeroTrust: true, knowledge: true, observe: true,
		jobs: 4000, horizon: 24 * sim.Hour, intensity: 0.15, trajectories: 2,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// small shrinks a workload for the benchmark's own tests, keeping its
// layer mix: fewer campaigns or jobs and a shorter search.
func (s spec) small() spec {
	if s.jobs > 0 {
		s.jobs, s.horizon = 240, 2*sim.Hour
		return s
	}
	s.campaigns = min(s.campaigns, 24)
	s.budget = min(s.budget, 24)
	return s
}

// unit names what one latency sample measures.
func (s spec) unit() string {
	switch {
	case s.jobs > 0:
		return "job"
	case s.perExperiment:
		return "experiment"
	}
	return "campaign"
}

// siteNames matches the federation naming the repo's experiments use, so
// fleet-saturation reproduces their seed-42 trajectory.
func siteNames(n int) []netsim.SiteID {
	base := []netsim.SiteID{"ornl", "anl", "slac", "pnnl", "jlab", "lbnl", "nrel", "ameslab"}
	out := make([]netsim.SiteID, n)
	for i := range out {
		if i < len(base) {
			out[i] = base[i]
		} else {
			out[i] = netsim.SiteID(fmt.Sprintf("site%02d", i))
		}
	}
	return out
}

// traceRing is chaos-federation's per-site span ring. Every span is still
// recorded, but the health engine copies every buffered span into each
// flight-recorder snapshot it freezes on an SLO alert (up to 16 a run); at
// the default 8192 that swung a pass's allocation between 270 and 660 MB
// with the seed's alert count.
const traceRing = 1024

// faultSeed fixes chaos-federation's fault schedule, which decides most of
// the SLO alerts and so the snapshots above; one fixed fault scenario keeps
// runs comparable. --seed still draws the jobs, the instruments' noise and
// failures, and the byzantine payloads.
const faultSeed = 1

// Chaos jobs alternate between the two domains the fleet serves.
var chaosDomains = []struct {
	model     twin.Model
	kind      string
	objective string
}{
	{twin.Perovskite{}, instrument.KindFlowReactor, "plqy"},
	{twin.Electrolyte{}, instrument.KindSynthesis, "conductivity_mS"},
}

// pass is one federation assembled, driven to completion and audited. The
// harness reads the program only through its public surface.
type pass struct {
	spec  spec
	seed  uint64
	n     *core.Network
	sites []netsim.SiteID
	log   *spanLog // nil outside the traced pass

	checker  *chaos.Checker
	injector *chaos.Injector

	start, end  sim.Time  // first submission, last result
	lat         []float64 // virtual latency per completed unit, seconds
	done        int
	failed      int
	experiments int
	reused      int
	firstErr    string

	obs         schedObserver
	peakPending int
}

// schedObserver is the harness's sched.Observer: decision counts, queue
// waits and the peak queue depth, chained in front of any observer the
// federation installed.
type schedObserver struct {
	counts    [sched.DecisionSteal + 1]int
	enqueued  map[string]sim.Time // since the job last entered a queue
	submitted map[string]sim.Time // since the job's first submission
	waits     []float64           // queue wait per dispatch
	latency   []float64           // first submission to completion
	peakQueue int
}

func (p *pass) observe(d sched.Decision) {
	o := &p.obs
	o.counts[d.Kind]++
	key := d.Tenant + "/" + d.Job
	switch d.Kind {
	case sched.DecisionSubmit, sched.DecisionRetry, sched.DecisionRescue:
		o.enqueued[key] = d.At
		if _, ok := o.submitted[key]; !ok && d.Kind == sched.DecisionSubmit {
			o.submitted[key] = d.At
		}
	case sched.DecisionComplete:
		o.latency = append(o.latency, (d.At - o.submitted[key]).Seconds())
		delete(o.submitted, key)
	case sched.DecisionDispatch:
		if t, ok := o.enqueued[key]; ok {
			o.waits = append(o.waits, (d.At - t).Seconds())
			delete(o.enqueued, key)
		}
	}
	o.peakQueue = max(o.peakQueue, p.n.Sched.QueueDepth())
	p.samplePending()
}

func (p *pass) samplePending() { p.peakPending = max(p.peakPending, p.n.Eng.Pending()) }

// setup assembles the federation, registers the fleet and lets discovery
// converge. Everything here is what setup_s times.
func setup(s spec, seed uint64, log *spanLog) *pass {
	span := log.begin("setup", 0)
	p := &pass{spec: s, seed: seed, sites: siteNames(s.sites), log: log}
	p.obs.enqueued = make(map[string]sim.Time)
	p.obs.submitted = make(map[string]sim.Time)
	cfg := core.Config{
		Seed:            seed,
		Sites:           p.sites,
		Link:            core.DefaultLink(),
		ZeroTrust:       s.zeroTrust,
		SharedKnowledge: s.knowledge,
	}
	if s.jobs > 0 {
		cfg.Sched.Recover = true
		// Chaos jobs lose messages only to injected faults, which the
		// recovery sweep rescues. A randomly lost dispatch is retried only
		// once the job's whole Timeout has passed, which leaves no budget
		// and fails the job.
		cfg.Link.Loss = 0
	}
	if s.observe {
		cfg.Trace = trace.Options{Enabled: true, SiteCapacity: traceRing}
		cfg.Health.Enabled = true
	}
	n := core.New(cfg)
	p.n = n

	perov, elec := twin.Perovskite{}, twin.Electrolyte{}
	for _, id := range p.sites {
		site := n.Site(id)
		for k := 0; k < s.reactors; k++ {
			in := instrument.NewFluidicReactor(n.Eng, n.Rnd, fmt.Sprintf("flow-%d-%s", k, id), string(id), perov)
			if s.reliable {
				in.SetFailureProb(0)
			}
			site.AddInstrument(in)
		}
		if s.formulation {
			site.AddInstrument(formulationStation(n, id, elec))
		}
	}
	prev := n.Sched.Observer
	n.Sched.Observer = func(d sched.Decision) {
		p.observe(d)
		if prev != nil {
			prev(d)
		}
	}
	if s.jobs > 0 {
		p.bindChaos()
	}
	must(n.RunFor(3 * sim.Minute))
	p.samplePending()
	log.end(span, n.Eng.Processed())
	return p
}

func formulationStation(n *core.Network, id netsim.SiteID, elec twin.Electrolyte) *instrument.Instrument {
	return instrument.New(n.Eng, n.Rnd, instrument.Config{
		Descriptor: instrument.Descriptor{
			ID: "formulate-" + string(id), Kind: instrument.KindSynthesis,
			Vendor: "SimCo", ModelName: "FormuMix 9", Site: string(id),
			Actions: []instrument.ActionSpec{{
				Name: "synthesize", Space: elec.Space(), Duration: 2 * sim.Minute,
				Outputs: []string{"conductivity_mS", "viscosity_cP"},
			}},
			Capabilities: map[string]float64{"throughput_per_hr": 30},
		},
		Twin:           twin.NewTwin(elec, twin.Noise{Rel: 0.03}),
		DurationJitter: 0.1,
		FailureProb:    0.004,
		RepairTime:     45 * sim.Minute,
	})
}

// bindChaos wires the invariant checker, knowledge sanity bounds and the
// fault injector, whose schedule and poison stream fork off the seed.
func (p *pass) bindChaos() {
	n := p.n
	n.Net.DropInFlight = true
	perov, elec := twin.Perovskite{}, twin.Electrolyte{}
	n.Knowledge.Bounds = map[string]knowledge.SanityBound{
		perov.Name(): {Space: perov.Space(), Min: 0, Max: 1},
		elec.Name():  {Space: elec.Space(), Min: 0, Max: 60},
	}
	p.checker = chaos.NewChecker()
	p.checker.OnViolation = n.Health.ObserveViolation
	p.checker.WatchNet(n.Net)
	n.Fabric.Use(p.checker.BusTap(n.Fed))

	tgt := chaos.Bind(n)
	poison := n.Rnd.Fork("chaos-poison")
	seq := 0
	tgt.Poison = func(site netsim.SiteID) {
		seq++
		n.Site(site).Knowledge.AddObservation(perov.Name(), param.Point{
			"temperature": 500 + float64(seq), "halide_ratio": 2,
			"residence_s": 1, "ligand_mM": 0,
		}, 5+poison.Float64())
	}
	p.injector = chaos.NewInjector(tgt)
}

// drive runs the workload to its last result.
func (p *pass) drive() error {
	span := p.log.begin("drive", 0)
	defer func() { p.log.end(span, p.n.Eng.Processed()) }()
	p.start = p.n.Eng.Now()
	if p.spec.jobs > 0 {
		return p.driveJobs(span)
	}
	return p.driveCampaigns(span)
}

func (p *pass) driveCampaigns(parent int) error {
	s, n := p.spec, p.n
	for c := 0; c < s.campaigns; c++ {
		name := fmt.Sprintf("bench-%03d", c)
		span := p.log.begin(name, parent)
		n.RunCampaign(core.CampaignConfig{
			Name:              name,
			Site:              p.sites[c%len(p.sites)],
			Model:             twin.Perovskite{},
			Budget:            s.budget,
			Mode:              core.OrchAgentVerified,
			SynthKind:         instrument.KindFlowReactor,
			Parallelism:       s.parallelism,
			UseKnowledge:      s.knowledge,
			InstrumentTimeout: s.timeout,
		}, func(r *core.CampaignReport) {
			p.log.end(span, n.Eng.Processed())
			p.done++
			p.experiments += r.Executed
			p.reused += r.Reused
			p.end = max(p.end, r.Finished)
			p.samplePending()
			if r.Err != nil {
				p.fail(fmt.Sprintf("campaign %s: %v", r.Name, r.Err))
				return
			}
			if !s.perExperiment {
				p.lat = append(p.lat, r.Makespan().Seconds())
			}
		})
	}
	err := p.runUntilDone(s.campaigns, 60*sim.Day, parent)
	if s.perExperiment {
		p.lat = p.obs.latency
	}
	return err
}

func (p *pass) driveJobs(parent int) error {
	s, n := p.spec, p.n
	events := chaos.Schedule(chaos.Config{
		Seed: faultSeed, Horizon: s.horizon, Intensity: s.intensity,
	}, p.sites)
	byz := make(map[netsim.SiteID]bool)
	for _, ev := range events {
		if ev.Kind == chaos.KindByzantine {
			byz[ev.Site] = true
		}
	}
	p.injector.Run(events)

	jobs := n.Rnd.Fork("chaos-jobs")
	for i := 0; i < s.jobs; i++ {
		dom := chaosDomains[0]
		if i%4 == 0 {
			dom = chaosDomains[1]
		}
		origin := p.sites[i%len(p.sites)]
		pt := dom.model.Space().Sample(jobs)
		id := fmt.Sprintf("job-%04d", i)
		ctx := n.Tracer.Root(trace.ID(id))
		n.Eng.Schedule(s.horizon*sim.Time(i)/sim.Time(s.jobs), func() {
			span := p.log.begin(id, parent)
			submitted := n.Eng.Now()
			p.checker.Submitted(id)
			n.Sched.Submit(sched.Job{
				Tenant:     "chaos",
				Origin:     origin,
				Kind:       dom.kind,
				Cmd:        instrument.Command{Action: "synthesize", Params: pt, SampleID: id, Trace: ctx},
				Timeout:    6 * sim.Hour,
				MaxRetries: 4,
				Trace:      ctx,
			}, func(res instrument.Result, err error) {
				p.log.end(span, n.Eng.Processed())
				p.checker.Terminal(id, err)
				p.done++
				p.end = max(p.end, n.Eng.Now())
				if err != nil {
					p.fail(fmt.Sprintf("job %s: %v", id, err))
					return
				}
				p.experiments++
				p.lat = append(p.lat, (n.Eng.Now() - submitted).Seconds())
				n.Site(origin).Knowledge.AddObservationT(ctx, dom.model.Name(), pt, res.Values[dom.objective])
			})
		})
	}
	if err := p.runUntilDone(s.jobs, s.horizon+48*sim.Hour, parent); err != nil {
		return err
	}
	honest := make([]netsim.SiteID, 0, len(p.sites))
	for _, id := range p.sites {
		if !byz[id] {
			honest = append(honest, id)
		}
	}
	p.checker.CheckKnowledge(n.Knowledge, honest)
	if v := p.checker.Check(); len(v) > 0 {
		return fmt.Errorf("%d chaos invariant violations, first: %s", len(v), v[0])
	}
	return nil
}

// runUntilDone advances the simulation in fixed virtual slices until every
// unit reported back, sampling the pending-event count at each boundary.
func (p *pass) runUntilDone(units int, limit sim.Time, parent int) error {
	const slice = 10 * sim.Minute
	deadline := p.n.Eng.Now() + limit
	for p.done < units && p.n.Eng.Now() < deadline {
		span := p.log.begin("slice", parent)
		if err := p.n.RunFor(slice); err != nil {
			return err
		}
		p.log.end(span, p.n.Eng.Processed())
		p.samplePending()
	}
	if p.done != units {
		return fmt.Errorf("only %d/%d %ss reported by the deadline", p.done, units, p.spec.unit())
	}
	if p.firstErr != "" {
		return fmt.Errorf("%d/%d %ss failed, first: %s", p.failed, units, p.spec.unit(), p.firstErr)
	}
	return nil
}

func (p *pass) fail(msg string) {
	p.failed++
	if p.firstErr == "" {
		p.firstErr = msg
	}
}

// registries lists every telemetry registry the federation exposes.
func (p *pass) registries() []*telemetry.Registry {
	n := p.n
	return []*telemetry.Registry{n.Metrics, n.Net.Metrics(), n.Fabric.Metrics(),
		n.Directory.Metrics(), n.Knowledge.Metrics(), n.Fed.Metrics()}
}

// digest fingerprints the pass's deterministic outcome: every telemetry
// snapshot plus the harness's own virtual-time records. Two passes of one
// seed must agree byte for byte.
func (p *pass) digest() string {
	h := sha256.New()
	for _, r := range p.registries() {
		must(r.WriteJSON(h))
	}
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %v %v %v", p.start, p.end, p.done, p.failed,
		p.experiments, p.reused, p.peakPending, p.obs.counts, p.obs.waits, p.lat)
	return hex.EncodeToString(h.Sum(nil))
}

// virtualMakespan is modelled time from the first submission to the last
// result, in virtual seconds.
func (p *pass) virtualMakespan() float64 { return (p.end - p.start).Seconds() }

// counter reads a counter without creating it, so reading never changes a
// snapshot.
func counter(r *telemetry.Registry, name string) float64 {
	if c := r.FindCounter(name); c != nil {
		return float64(c.Value())
	}
	return 0
}

// counterPrefix sums every labelled variant of a counter.
func counterPrefix(r *telemetry.Registry, name string) float64 {
	sum := 0.0
	for _, k := range r.Names() {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += counter(r, k)
		}
	}
	return sum
}

func histQuantile(r *telemetry.Registry, name string, q float64) float64 {
	if h := r.FindHistogram(name); h != nil && h.Count() > 0 {
		return h.Quantile(q)
	}
	return 0
}

// counts reads the per-layer work counts of a finished pass from public
// getters. Call it after digest: Registry.Live expires stale records.
func (p *pass) counts() map[string]float64 {
	n := p.n
	net, bus, dir, know, sec := n.Net.Metrics(), n.Fabric.Metrics(), n.Directory.Metrics(), n.Knowledge.Metrics(), n.Fed.Metrics()
	o := &p.obs
	live, instruments, busy := 0, 0, 0.0
	for _, id := range p.sites {
		site := n.Site(id)
		live += site.Registry.Live()
		for _, iid := range site.Fleet.IDs() {
			in, _ := site.Fleet.Get(iid)
			instruments++
			if h := in.Metrics().FindHistogram("instrument.action_s"); h != nil {
				busy += h.Sum()
			}
		}
	}
	return map[string]float64{
		"sim.events":                float64(n.Eng.Processed()),
		"sim.peak_pending":          float64(p.peakPending),
		"netsim.sent":               counter(net, "net.sent"),
		"netsim.dropped":            counter(net, "net.lost") + counter(net, "net.link_down_drops") + counter(net, "net.inflight_drops") + counter(net, "net.firewalled"),
		"netsim.delay_p99_vs":       histQuantile(net, "net.delay_s", 0.99),
		"bus.rpc_calls":             counter(bus, "bus.rpc.calls"),
		"bus.rpc_retries":           counter(bus, "bus.rpc.retries"),
		"bus.rpc_failures":          counter(bus, "bus.rpc.failures"),
		"bus.rpc_latency_p99_vs":    histQuantile(bus, "bus.rpc.latency_s", 0.99),
		"security.checks":           counter(sec, "security.checks"),
		"security.rejected":         counter(sec, "security.authn_failures") + counter(sec, "security.authz_denials"),
		"discovery.gossip_rounds":   counter(dir, "discovery.gossip_rounds"),
		"discovery.live_records":    float64(live),
		"sched.submitted":           float64(o.counts[sched.DecisionSubmit]),
		"sched.dispatched":          float64(o.counts[sched.DecisionDispatch]),
		"sched.retries":             float64(o.counts[sched.DecisionRetry]),
		"sched.rescues":             float64(o.counts[sched.DecisionRescue]),
		"sched.steals":              float64(o.counts[sched.DecisionSteal]),
		"sched.peak_queue_depth":    float64(o.peakQueue),
		"sched.wait_p50_vs":         quantile(o.waits, 0.5),
		"sched.wait_p99_vs":         quantile(o.waits, 0.99),
		"optimize.asks":             float64(p.asks()),
		"knowledge.merged":          counter(know, "knowledge.merged"),
		"knowledge.quarantined":     counterPrefix(know, "knowledge.quarantined"),
		"knowledge.sync_lag_p99_vs": histQuantile(know, "knowledge.sync_lag_s", 0.99),
		"instrument.busy_frac":      busy / (float64(instruments) * p.virtualMakespan()),
		"core.reused_frac":          float64(p.reused) / float64(max(p.experiments+p.reused, 1)),
		"core.virtual_makespan_s":   p.virtualMakespan(),
		"trace.spans":               float64(n.Tracer.Len()) + float64(n.Tracer.Dropped()),
		"obs.journal_entries":       journaled(n.Health),
		"obs.samples":               sloTicks(n.Health, p.sites),
	}
}

// journaled is how many entries the health engine has journaled: the
// sequence number of its newest flight-recorder entry (0 when it is off).
func journaled(e *obs.Engine) float64 {
	j := e.Journal()
	if len(j) == 0 {
		return 0
	}
	return float64(j[len(j)-1].Seq)
}

// sloTicks is how many SLO evaluation ticks the health engine has taken,
// read from a default gauge SLO's status: a gauge SLO records one verdict
// per tick, so its total is the tick count (0 when the engine is off).
func sloTicks(e *obs.Engine, sites []netsim.SiteID) float64 {
	names := make([]string, len(sites))
	for i, id := range sites {
		names[i] = string(id)
	}
	gauge := map[string]bool{}
	for _, slo := range obs.DefaultSLOs(names) {
		gauge[slo.Name] = slo.Metric.Gauge != ""
	}
	for _, st := range e.Statuses() {
		if gauge[st.Name] {
			return st.Total
		}
	}
	return 0
}

// asks is the number of optimizer proposals: campaigns ask once per
// executed or reused experiment; the chaos job stream never asks.
func (p *pass) asks() int {
	if p.spec.jobs > 0 {
		return 0
	}
	return p.experiments + p.reused
}

// quantile is the nearest-rank quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// spanLog records the harness's own host-time spans in the traced pass:
// setup, each RunFor slice with the sim events it fired, and each campaign
// or job from launch to callback. A nil log records nothing.
type spanLog struct {
	t0    time.Time
	spans []span
}

type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Events uint64 `json:"sim_events_at_end"`
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), spans: []span{{Name: "pass", Parent: -1}}}
}

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: time.Since(l.t0).Nanoseconds()})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int, events uint64) {
	if l == nil {
		return
	}
	l.spans[i].End = time.Since(l.t0).Nanoseconds()
	l.spans[i].Events = events
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
