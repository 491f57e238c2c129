package main

import (
	"fmt"
	"time"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/core"
	"github.com/aisle-sim/aisle/internal/discovery"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/knowledge"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/optimize"
	"github.com/aisle-sim/aisle/internal/param"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sched"
	"github.com/aisle-sim/aisle/internal/security"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/trace"
	"github.com/aisle-sim/aisle/internal/twin"
)

// Layer probes time the harness's own calls into each layer's public
// functions on the workload's shape, and subtract the cost of the lower
// layers each call drove (counted through the same public getters), so
// every ns_per_* figure is the layer's own host time per operation.

// costs holds the probes' net ns per operation, lowest layer first; each
// probe reads the costs of the layers below it.
type costs struct {
	event, send, rpc, verify, browse, gossip, dispatch, ask, merge, span, decision, sample float64
}

// timeBatches runs batch until budget is spent (at least three times) and
// returns the median of its net ns per operation. batch reports how many
// operations it ran and its own timed wall minus lower-layer cost.
func timeBatches(budget time.Duration, batch func() (ops, netNs float64)) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < budget {
		ops, ns := batch()
		if ops > 0 {
			per = append(per, ns/ops)
		}
	}
	return median(per)
}

// lower is the host time the layers below a probe spent on d.
func (c *costs) lower(d spine) float64 {
	return d.events*c.event + d.sends*c.send + d.rpcs*c.rpc + d.checks*c.verify + d.rounds*c.gossip
}

// probe measures every layer cost for workload s at the counts of one of
// its untraced passes; the twelve probes share total wall time evenly.
func probe(s spec, seed uint64, cnt map[string]float64, total time.Duration) costs {
	budget := total / 12
	var c costs
	c.event = probeSim(int(cnt["sim.peak_pending"]), budget)
	c.send = c.probeNet(budget)
	c.rpc = c.probeRPC(budget)

	// Zero trust, tracing and the health engine are timed on the
	// federation's own Guard, Tracer and health engine, switched on for
	// every workload. The probes call them directly and never advance the
	// simulation, so no other layer runs meanwhile.
	on := s
	on.zeroTrust, on.observe = true, true
	g := setup(on, seed, nil)
	c.verify = probeVerify(g, budget)
	c.span = probeSpan(g, budget)
	c.decision = probeDecision(g, budget)
	c.sample = probeSample(g, budget)
	g.n.Stop()

	// Discovery and the scheduler run on a federation of the workload's
	// shape with the program's tracing and health engine left off.
	shape := s
	shape.observe = false
	f := setup(shape, seed, nil)
	c.browse = probeBrowse(f, budget)
	c.gossip = c.probeGossip(f, budget)
	c.dispatch = c.probeDispatch(f, max(int(cnt["sched.peak_queue_depth"]), minDispatchDepth), max(s.campaigns, 1), budget)
	f.n.Stop()

	c.ask = probeAsk(s, seed, budget)
	c.merge = c.probeMerge(s, budget)
	return c
}

// probeSim times Engine.Schedule plus the event firing with pending events
// already queued, as at the workload's peak.
func probeSim(pending int, budget time.Duration) float64 {
	eng := sim.NewEngine()
	noop := func() {}
	for i := 0; i < pending; i++ {
		eng.Schedule(365*sim.Day+sim.Time(i), noop)
	}
	return timeBatches(budget, func() (float64, float64) {
		const ops = 4096
		t := time.Now()
		for i := 0; i < ops; i++ {
			eng.Schedule(sim.Time(i%1024)*sim.Millisecond, noop)
		}
		must(eng.RunUntil(eng.Now() + sim.Second))
		return ops, float64(time.Since(t).Nanoseconds())
	})
}

// twoSites is a two-site WAN on the workload's link template.
func twoSites() (*sim.Engine, *netsim.Network) {
	eng := sim.NewEngine()
	net := netsim.New(eng, rng.New(1).Fork("net"))
	for _, id := range []netsim.SiteID{"a", "b"} {
		net.AddSite(id).Firewall.Allow(netsim.Rule{Service: "bus"})
	}
	net.Connect("a", "b", core.DefaultLink())
	return eng, net
}

// probeNet times Network.Send through delivery, net of the arrival event.
func (c *costs) probeNet(budget time.Duration) float64 {
	eng, net := twoSites()
	deliver := func(netsim.Message) {}
	return timeBatches(budget, func() (float64, float64) {
		const ops = 4096
		ev := eng.Processed()
		t := time.Now()
		for i := 0; i < ops; i++ {
			_ = net.Send(netsim.Message{From: "a", To: "b", Service: "bus", Size: 512}, deliver)
		}
		must(eng.RunUntil(eng.Now() + sim.Second))
		wall := float64(time.Since(t).Nanoseconds())
		return ops, wall - c.lower(spine{events: float64(eng.Processed() - ev)})
	})
}

// probeRPC times a Fabric.Call round trip to a handler that answers at
// once, net of its WAN sends and events.
func (c *costs) probeRPC(budget time.Duration) float64 {
	eng, net := twoSites()
	fab := bus.NewFabric(net)
	fab.Broker("b").Register("echo", func(_ *bus.Envelope, respond func(any, error)) { respond(nil, nil) })
	cb := func(any, error) {}
	opts := bus.CallOpts{
		From: bus.Address{Site: "a", Name: "probe"}, To: bus.Address{Site: "b", Name: "echo"},
		Method: "echo", Size: 512, Timeout: sim.Second,
	}
	sent := net.Metrics().Counter("net.sent")
	return timeBatches(budget, func() (float64, float64) {
		const ops = 2048
		ev, s0 := eng.Processed(), sent.Value()
		t := time.Now()
		for i := 0; i < ops; i++ {
			fab.Call(opts, cb)
		}
		must(eng.RunUntil(eng.Now() + 2*sim.Second))
		wall := float64(time.Since(t).Nanoseconds())
		return ops, wall - c.lower(spine{events: float64(eng.Processed() - ev), sends: float64(sent.Value() - s0)})
	})
}

// probeVerify times one zero-trust admission through the federation's
// Guard (token verification plus its standing policies), presenting the
// service token the fabric attaches to one site's outbound traffic at
// every other site, for calls and publishes alike.
func probeVerify(f *pass, budget time.Duration) float64 {
	n := f.n
	tok, _ := n.Fabric.TokenSource(bus.Address{Site: f.sites[0], Name: "probe"}).(*security.Token)
	peers := f.sites[1:]
	actions := []string{"call", "publish"}
	return timeBatches(budget, func() (float64, float64) {
		const ops = 4096
		t := time.Now()
		for i := 0; i < ops; i++ {
			must(n.Guard.Check(peers[i%len(peers)], tok, actions[i%2], "probe"))
		}
		return ops, float64(time.Since(t).Nanoseconds())
	})
}

// probeBrowse times Registry.BrowseFunc over the live records of a
// converged registry of the workload's fleet.
func probeBrowse(f *pass, budget time.Duration) float64 {
	reg := f.n.Site(f.sites[0]).Registry
	seen := 0
	visit := func(*discovery.Record) bool { seen++; return true }
	return timeBatches(budget, func() (float64, float64) {
		const ops = 4096
		t := time.Now()
		for i := 0; i < ops; i++ {
			reg.BrowseFunc(instrument.KindFlowReactor, visit)
		}
		return ops, float64(time.Since(t).Nanoseconds())
	})
}

// probeGossip advances an idle federation so only discovery gossip (and
// token renewal) runs, and charges each gossip exchange its host time net
// of the RPCs, sends, admissions and events it drove.
func (c *costs) probeGossip(f *pass, budget time.Duration) float64 {
	n := f.n
	return timeBatches(budget, func() (float64, float64) {
		s := f.spineCounts()
		t := time.Now()
		must(n.RunFor(10 * sim.Minute))
		wall := float64(time.Since(t).Nanoseconds())
		d := f.spineCounts().minus(s)
		return d.rounds, wall - c.lower(d)
	})
}

// minDispatchDepth keeps the dispatch probe's batches large enough that the
// lower-layer subtraction does not swamp the scheduler's own cost on
// workloads whose queue stays short.
const minDispatchDepth = 64

// probeDispatch submits the workload's peak queue depth of jobs at once,
// spread over its tenants (one per campaign), and runs them to completion,
// charging each dispatch the host time left after the lower layers' share:
// Submit, routing with its discovery browses, and dispatch bookkeeping.
func (c *costs) probeDispatch(f *pass, depth, tenants int, budget time.Duration) float64 {
	n := f.n
	space := twin.Perovskite{}.Space()
	r := rng.New(f.seed).Fork("probe-dispatch")
	dispatched := n.Metrics.Counter("sched.dispatched")
	batchNo := 0
	return timeBatches(budget, func() (float64, float64) {
		batchNo++
		pts := make([]param.Point, depth)
		for i := range pts {
			pts[i] = space.Sample(r)
		}
		s := f.spineCounts()
		d0 := dispatched.Value()
		done := 0
		cb := func(instrument.Result, error) { done++ }
		t := time.Now()
		for i, pt := range pts {
			tenant := i % tenants
			n.Sched.Submit(sched.Job{
				Tenant: fmt.Sprintf("probe-%03d", tenant), Origin: f.sites[tenant%len(f.sites)], Kind: instrument.KindFlowReactor,
				Cmd:     instrument.Command{Action: "synthesize", Params: pt, SampleID: fmt.Sprintf("probe-%d-%d", batchNo, i)},
				Timeout: sim.Hour, MaxRetries: 3,
			}, cb)
		}
		for deadline := n.Eng.Now() + 30*sim.Day; done < depth && n.Eng.Now() < deadline; {
			must(n.RunFor(sim.Minute))
		}
		wall := float64(time.Since(t).Nanoseconds())
		d := f.spineCounts().minus(s)
		return float64(dispatched.Value() - d0), wall - c.lower(d)
	})
}

// probeAsk replays one campaign's optimizer loop at the workload's budget
// and parallelism, Bayes.Tell after each refill ask (AskBatch(1, inflight)
// with Parallelism-1 points in flight, or Ask on the serial path), so the
// cost per ask averages over every observation count a campaign passes
// through.
func probeAsk(s spec, seed uint64, budget time.Duration) float64 {
	model := twin.Perovskite{}
	space := model.Space()
	r := rng.New(seed).Fork("probe-ask")
	fly := make([]param.Point, max(s.parallelism-1, 0))
	for i := range fly {
		fly[i] = space.Sample(r)
	}
	ops := max(s.budget, 1)
	return timeBatches(budget, func() (float64, float64) {
		b := optimize.NewBayes(space, r.Fork("opt"), optimize.BayesOpts{})
		t := time.Now()
		for i := 0; i < ops; i++ {
			var p param.Point
			if len(fly) > 0 {
				p = b.AskBatch(1, fly)[0]
			} else {
				p = b.Ask()
			}
			b.Tell(p, model.Eval(p)[model.Objective()])
		}
		return float64(ops), float64(time.Since(t).Nanoseconds())
	})
}

// probeMerge publishes observations from one site and lets every peer
// merge them, net of the WAN sends and events; the publish fan-out and
// acknowledgements stay in the figure.
func (c *costs) probeMerge(s spec, budget time.Duration) float64 {
	eng := sim.NewEngine()
	net := netsim.New(eng, rng.New(1).Fork("net"))
	sites := siteNames(max(s.sites, 2))
	for _, id := range sites {
		net.AddSite(id).Firewall.Allow(netsim.Rule{Service: "bus"})
	}
	net.FullMesh(sites, core.DefaultLink())
	kf := knowledge.NewFederation(bus.NewFabric(net), sites, true)
	model := twin.Perovskite{}
	if s.jobs > 0 {
		kf.Bounds = map[string]knowledge.SanityBound{model.Name(): {Space: model.Space(), Min: 0, Max: 1}}
	}
	r := rng.New(1).Fork("probe-merge")
	merged := kf.Metrics().Counter("knowledge.merged")
	sent := net.Metrics().Counter("net.sent")
	return timeBatches(budget, func() (float64, float64) {
		const ops = 256
		pts := make([]param.Point, ops)
		for i := range pts {
			pts[i] = model.Space().Sample(r)
		}
		ev, s0, m0 := eng.Processed(), sent.Value(), merged.Value()
		t := time.Now()
		for i, p := range pts {
			kf.Base(sites[i%len(sites)]).AddObservation(model.Name(), p, 0.5)
		}
		must(eng.RunUntil(eng.Now() + sim.Minute))
		wall := float64(time.Since(t).Nanoseconds())
		return float64(merged.Value() - m0), wall - c.lower(spine{events: float64(eng.Processed() - ev), sends: float64(sent.Value() - s0)})
	})
}

// probeSpan times one span recorded on the federation's tracer:
// Context.Start plus Finish.
func probeSpan(f *pass, budget time.Duration) float64 {
	ctx := f.n.Tracer.Root(trace.ID("probe"))
	site := string(f.sites[0])
	return timeBatches(budget, func() (float64, float64) {
		const ops = 4096
		t := time.Now()
		for i := 0; i < ops; i++ {
			sp, cc := ctx.Start(sim.Time(i), site, trace.KindInstrument, "probe")
			cc.Finish(&sp, sim.Time(i+1))
		}
		return ops, float64(time.Since(t).Nanoseconds())
	})
}

// probeDecision times the federation's health engine journaling a
// scheduler decision (ObserveDecision) on a submit, dispatch, complete
// lifecycle per job.
func probeDecision(f *pass, budget time.Duration) float64 {
	e := f.n.Health
	kinds := []sched.DecisionKind{sched.DecisionSubmit, sched.DecisionDispatch, sched.DecisionComplete}
	jobs := make([]string, 1024)
	for i := range jobs {
		jobs[i] = fmt.Sprintf("probe-%04d", i)
	}
	at := f.n.Eng.Now()
	return timeBatches(budget, func() (float64, float64) {
		const ops = 3 * 1024
		t := time.Now()
		for i := 0; i < ops; i++ {
			at += sim.Second
			site := f.sites[(i/3)%len(f.sites)]
			e.ObserveDecision(sched.Decision{Kind: kinds[i%3], At: at, Job: jobs[i/3],
				Tenant: "probe", Origin: site, Host: site})
		}
		return ops, float64(time.Since(t).Nanoseconds())
	})
}

// probeSample times one SLO evaluation tick (Engine.Sample) of the
// federation's health engine over the SLOs and registries it was
// assembled with.
func probeSample(f *pass, budget time.Duration) float64 {
	e := f.n.Health
	return timeBatches(budget, func() (float64, float64) {
		const ops = 1024
		t := time.Now()
		for i := 0; i < ops; i++ {
			e.Sample()
		}
		return ops, float64(time.Since(t).Nanoseconds())
	})
}

// spine is a snapshot of the lower-layer operation counters of one
// federation: sim events, WAN sends, RPCs, zero-trust checks and gossip
// exchanges.
type spine struct{ events, sends, rpcs, checks, rounds float64 }

func (p *pass) spineCounts() spine {
	n := p.n
	return spine{
		events: float64(n.Eng.Processed()),
		sends:  counter(n.Net.Metrics(), "net.sent"),
		rpcs:   counter(n.Fabric.Metrics(), "bus.rpc.calls"),
		checks: counter(n.Fed.Metrics(), "security.checks"),
		rounds: counter(n.Directory.Metrics(), "discovery.gossip_rounds"),
	}
}

func (a spine) minus(b spine) spine {
	return spine{a.events - b.events, a.sends - b.sends, a.rpcs - b.rpcs, a.checks - b.checks, a.rounds - b.rounds}
}

// attribution multiplies each layer's net cost by its operation count in
// the pass. Discovery browses are charged inside sched.ns_per_dispatch
// (routing calls them), so only gossip is counted for discovery. Every
// health-engine journal entry is charged at the cost of journaling a
// scheduler decision, which most entries are.
func (c costs) attribution(cnt map[string]float64) map[string]float64 {
	return map[string]float64{
		"sim":       cnt["sim.events"] * c.event,
		"netsim":    cnt["netsim.sent"] * c.send,
		"bus":       cnt["bus.rpc_calls"] * c.rpc,
		"security":  cnt["security.checks"] * c.verify,
		"discovery": cnt["discovery.gossip_rounds"] * c.gossip,
		"sched":     cnt["sched.dispatched"] * c.dispatch,
		"optimize":  cnt["optimize.asks"] * c.ask,
		"knowledge": cnt["knowledge.merged"] * c.merge,
		"trace":     cnt["trace.spans"] * c.span,
		"obs":       cnt["obs.journal_entries"]*c.decision + cnt["obs.samples"]*c.sample,
	}
}
