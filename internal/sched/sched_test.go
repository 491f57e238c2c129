package sched

import (
	"errors"
	"testing"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/discovery"
	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/twin"
)

// testbed is a minimal federation (network + bus + discovery + fleets)
// without the core package, mirroring core.AddInstrument's wiring.
type testbed struct {
	eng    *sim.Engine
	rnd    *rng.Stream
	net    *netsim.Network
	fab    *bus.Fabric
	dir    *discovery.Directory
	s      *Scheduler
	fleets map[netsim.SiteID]*instrument.Fleet
}

func newTestbed(t *testing.T, sites []netsim.SiteID, opts Options) *testbed {
	t.Helper()
	eng := sim.NewEngine()
	rnd := rng.New(1)
	net := netsim.New(eng, rnd.Fork("net"))
	for _, id := range sites {
		net.AddSite(id).Firewall.AllowAll()
	}
	if len(sites) > 1 {
		// Lossless links keep the tests free of 48h RPC-timeout stalls.
		net.FullMesh(sites, netsim.Link{
			Latency: 15 * sim.Millisecond, Jitter: sim.Millisecond, Bandwidth: 125e6,
		})
	}
	fab := bus.NewFabric(net)
	dir := discovery.NewDirectory(fab, sites)
	tb := &testbed{
		eng: eng, rnd: rnd, net: net, fab: fab, dir: dir,
		s:      New(eng, net, fab, telemetry.NewRegistry(), rnd.Fork("sched"), opts),
		fleets: make(map[netsim.SiteID]*instrument.Fleet),
	}
	for _, id := range sites {
		fleet := instrument.NewFleet()
		tb.fleets[id] = fleet
		tb.s.AddSite(SiteBinding{
			ID: id, Registry: dir.Registry(id), Fleet: fleet,
			Token: func() any { return nil },
		})
	}
	dir.Start()
	tb.s.Start()
	t.Cleanup(func() {
		tb.s.Stop()
		dir.Stop()
		checkQueueCounts(t, tb.s)
	})
	return tb
}

// checkQueueCounts holds the scheduler's queue-depth counters to the
// queues they count: each site's to its tenants' backlogs, and the
// federation total to the sum over sites.
func checkQueueCounts(t *testing.T, s *Scheduler) {
	t.Helper()
	total := 0
	for _, id := range s.order {
		ss := s.sites[id]
		n := 0
		for _, tq := range ss.tenants {
			n += len(tq.jobs)
		}
		if ss.queued != n {
			t.Errorf("site %s counts %d queued jobs, its queues hold %d", id, ss.queued, n)
		}
		total += n
	}
	if s.queued != total {
		t.Errorf("scheduler counts %d queued jobs, the site queues hold %d", s.queued, total)
	}
}

// addReactor installs a fluidic reactor at a site: fleet, bus endpoint,
// and discovery record.
func (tb *testbed) addReactor(site netsim.SiteID, id string) *instrument.Instrument {
	in := instrument.NewFluidicReactor(tb.eng, tb.rnd, id, string(site), twin.Perovskite{})
	d := in.Descriptor()
	tb.fleets[site].Add(in)
	endpoint := "instr/" + d.ID
	tb.fab.Broker(site).Register(endpoint, func(env *bus.Envelope, respond func(any, error)) {
		in.Submit(env.Payload.(instrument.Command), func(res instrument.Result) {
			respond(res, res.Err)
		})
	})
	tb.dir.Registry(site).Register(discovery.Record{
		Instance:     string(site) + "/" + d.ID,
		Type:         d.Kind,
		Addr:         bus.Address{Site: site, Name: endpoint},
		Capabilities: d.Capabilities,
	})
	return in
}

// converge runs gossip long enough for records to propagate.
func (tb *testbed) converge() { _ = tb.eng.RunUntil(tb.eng.Now() + 10*sim.Second) }

func (tb *testbed) runFor(d sim.Time) { _ = tb.eng.RunUntil(tb.eng.Now() + d) }

// validPoint is an in-envelope perovskite synthesis command.
func validCmd(sample string) instrument.Command {
	return instrument.Command{
		Action: "synthesize",
		Params: map[string]float64{
			"temperature": 150, "halide_ratio": 0.5, "residence_s": 60, "ligand_mM": 15,
		},
		SampleID: sample,
	}
}

func TestFairShareWeightedOrdering(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{MaxInFlightPerInstrument: 1})
	tb.addReactor("a", "flow-1")
	tb.converge()

	tb.s.Tenant("a", TenantConfig{ID: "alpha", Weight: 2})
	tb.s.Tenant("a", TenantConfig{ID: "beta", Weight: 1})

	var order []string
	submit := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			tb.s.Submit(Job{Tenant: tenant, Origin: "a", Kind: instrument.KindFlowReactor,
				Cmd: validCmd(tenant)}, func(res instrument.Result, err error) {
				if err != nil {
					t.Errorf("%s job failed: %v", tenant, err)
				}
				order = append(order, tenant)
			})
		}
	}
	// Beta submits first: weight, not arrival order, must set the ratio.
	submit("beta", 12)
	submit("alpha", 12)
	tb.runFor(time30m())

	if len(order) != 24 {
		t.Fatalf("completed %d of 24 jobs", len(order))
	}
	nAlpha := 0
	for _, id := range order[:12] {
		if id == "alpha" {
			nAlpha++
		}
	}
	// Weighted DRR at 2:1 should give alpha ~8 of the first 12 dispatches.
	if nAlpha < 7 || nAlpha > 9 {
		t.Fatalf("alpha got %d of first 12 dispatches, want ~8 (order %v)", nAlpha, order[:12])
	}
}

func time30m() sim.Time { return 30 * sim.Minute }

func TestPriorityClassesPreemptQueue(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{MaxInFlightPerInstrument: 1})
	tb.addReactor("a", "flow-1")
	tb.converge()

	tb.s.Tenant("a", TenantConfig{ID: "urgent", Class: ClassUrgent})

	var order []string
	submit := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			tb.s.Submit(Job{Tenant: tenant, Origin: "a", Kind: instrument.KindFlowReactor,
				Cmd: validCmd(tenant)}, func(res instrument.Result, err error) {
				order = append(order, tenant)
			})
		}
	}
	submit("normal", 10)
	tb.runFor(5 * sim.Second) // the first normal job is dispatched
	submit("urgent", 5)
	tb.runFor(time30m())

	if len(order) != 15 {
		t.Fatalf("completed %d of 15 jobs", len(order))
	}
	// Slot 0 was already committed to normal; slots 1..5 must be urgent.
	for i := 1; i <= 5; i++ {
		if order[i] != "urgent" {
			t.Fatalf("urgent work did not jump the queue: order %v", order)
		}
	}
}

func TestAgingPromotesStarvedBackfill(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{
		MaxInFlightPerInstrument: 1,
		AgingStep:                10 * sim.Second,
	})
	tb.addReactor("a", "flow-1")
	tb.converge()

	tb.s.Tenant("a", TenantConfig{ID: "bg", Class: ClassBatch})
	tb.s.Tenant("a", TenantConfig{ID: "hot", Class: ClassUrgent})

	var order []string
	add := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			tb.s.Submit(Job{Tenant: tenant, Origin: "a", Kind: instrument.KindFlowReactor,
				Cmd: validCmd(tenant)}, func(res instrument.Result, err error) {
				order = append(order, tenant)
			})
		}
	}
	add("bg", 1)
	add("hot", 20)
	tb.runFor(time30m())

	bgIdx := -1
	for i, id := range order {
		if id == "bg" {
			bgIdx = i
		}
	}
	if bgIdx == -1 {
		t.Fatalf("background job never ran: order %v", order)
	}
	// Without aging the batch-class job would run dead last (index 20);
	// with a 10s aging step it outranks urgent work after ~30s of waiting,
	// i.e. within the first few ~15s reactor slots.
	if bgIdx > 5 {
		t.Fatalf("background job starved until index %d: order %v", bgIdx, order)
	}
}

func TestCrossSiteRoutingPrefersIdleRemote(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a", "b"}, Options{MaxInFlightPerInstrument: 1})
	tb.addReactor("a", "flow-a")
	tb.addReactor("b", "flow-b")
	tb.converge()

	var ids []string
	for i := 0; i < 2; i++ {
		tb.s.Submit(Job{Tenant: "c", Origin: "a", Kind: instrument.KindFlowReactor,
			Cmd: validCmd("x")}, func(res instrument.Result, err error) {
			if err != nil {
				t.Errorf("job failed: %v", err)
			}
			ids = append(ids, res.InstrumentID)
		})
	}
	tb.runFor(10 * sim.Minute)

	if len(ids) != 2 {
		t.Fatalf("completed %d of 2 jobs", len(ids))
	}
	if ids[0] == ids[1] {
		t.Fatalf("both jobs ran on %s; the second should route to the idle remote reactor", ids[0])
	}
	if got := tb.s.metrics.Counter("sched.remote_dispatches").Value(); got != 1 {
		t.Fatalf("remote_dispatches = %d, want 1", got)
	}
}

func TestRoutingSkipsDownInstrument(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a", "b"}, Options{MaxInFlightPerInstrument: 2})
	local := tb.addReactor("a", "flow-a")
	tb.addReactor("b", "flow-b")
	tb.converge()

	local.ForceFailure()
	var got string
	tb.s.Submit(Job{Tenant: "c", Origin: "a", Kind: instrument.KindFlowReactor,
		Cmd: validCmd("x")}, func(res instrument.Result, err error) {
		if err != nil {
			t.Errorf("job failed: %v", err)
		}
		got = res.InstrumentID
	})
	tb.runFor(10 * sim.Minute)

	if got != "flow-b" {
		t.Fatalf("job ran on %q, want the healthy remote flow-b", got)
	}
}

func TestWorkStealingDrainsPeerBacklog(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a", "b"}, Options{MaxInFlightPerInstrument: 1})
	tb.addReactor("a", "flow-a")
	tb.addReactor("b", "flow-b")
	tb.converge()

	byInstr := map[string]int{}
	done := 0
	for i := 0; i < 12; i++ {
		tb.s.Submit(Job{Tenant: "c", Origin: "a", Kind: instrument.KindFlowReactor,
			Cmd: validCmd("x")}, func(res instrument.Result, err error) {
			if err != nil {
				t.Errorf("job failed: %v", err)
			}
			byInstr[res.InstrumentID]++
			done++
		})
	}
	tb.runFor(time30m())

	if done != 12 {
		t.Fatalf("completed %d of 12 jobs", done)
	}
	if byInstr["flow-b"] == 0 {
		t.Fatalf("remote reactor never used: %v", byInstr)
	}
	if steals := tb.s.metrics.Counter("sched.steals").Value(); steals == 0 {
		t.Fatal("site b never stole from a's backlog")
	}
}

func TestInFlightAccountingRespectsCaps(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{MaxInFlightPerInstrument: 2})
	tb.addReactor("a", "flow-1")
	tb.addReactor("a", "flow-2")
	tb.converge()

	if got := tb.s.Capacity(); got != 4 {
		t.Fatalf("capacity = %d, want 4", got)
	}
	maxFlying, done := 0, 0
	for i := 0; i < 10; i++ {
		tb.s.Submit(Job{Tenant: "c", Origin: "a", Kind: instrument.KindFlowReactor,
			Cmd: validCmd("x")}, func(res instrument.Result, err error) {
			done++
		})
		if f := tb.s.InFlight(); f > maxFlying {
			maxFlying = f
		}
	}
	// Sample in-flight load as the simulation progresses.
	for i := 0; i < 60; i++ {
		tb.runFor(5 * sim.Second)
		if f := tb.s.InFlight(); f > maxFlying {
			maxFlying = f
		}
	}
	if done != 10 {
		t.Fatalf("completed %d of 10 jobs", done)
	}
	if maxFlying > 4 {
		t.Fatalf("in-flight peaked at %d, cap is 4", maxFlying)
	}
	if maxFlying < 3 {
		t.Fatalf("in-flight peaked at %d; batching should keep the fleet loaded", maxFlying)
	}
	if c := tb.s.metrics.Histogram("sched.wait_s").Count(); c != 10 {
		t.Fatalf("wait histogram has %d observations, want 10", c)
	}
	if tb.s.QueueDepth() != 0 || tb.s.InFlight() != 0 {
		t.Fatalf("scheduler not drained: queued %d flying %d", tb.s.QueueDepth(), tb.s.InFlight())
	}
}

func TestBackfillAcrossClasses(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{MaxInFlightPerInstrument: 1})
	tb.addReactor("a", "flow-1")
	tb.converge()

	tb.s.Tenant("a", TenantConfig{ID: "urgent", Class: ClassUrgent})

	// The urgent tenant's jobs want a kind nobody advertises; the normal
	// tenant's reactor work must backfill the idle reactor immediately
	// instead of waiting behind the blocked higher class.
	for i := 0; i < 3; i++ {
		tb.s.Submit(Job{Tenant: "urgent", Origin: "a", Kind: "_xrd._aisle",
			Cmd: validCmd("x")}, func(instrument.Result, error) {})
	}
	done := 0
	for i := 0; i < 4; i++ {
		tb.s.Submit(Job{Tenant: "normal", Origin: "a", Kind: instrument.KindFlowReactor,
			Cmd: validCmd("x")}, func(res instrument.Result, err error) {
			if err != nil {
				t.Errorf("job failed: %v", err)
			}
			done++
		})
	}
	tb.runFor(10 * sim.Minute)

	if done != 4 {
		t.Fatalf("completed %d of 4 backfill jobs; blocked urgent class idled the reactor", done)
	}
	if tb.s.QueueDepth() != 3 {
		t.Fatalf("queue depth = %d, want the 3 unroutable urgent jobs", tb.s.QueueDepth())
	}
}

func TestQueuedJobExpiresWithTerminalError(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{})
	in := tb.addReactor("a", "flow-1")
	tb.converge()

	in.ForceFailure() // down for 30 minutes (fluidic repair time)
	var got error
	done := false
	tb.s.Submit(Job{Tenant: "c", Origin: "a", Kind: instrument.KindFlowReactor,
		Cmd: validCmd("x"), Timeout: 5 * sim.Minute},
		func(res instrument.Result, err error) { got, done = err, true })
	tb.runFor(10 * sim.Minute)

	if !done {
		t.Fatal("job never reached a terminal outcome")
	}
	if !errors.Is(got, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", got)
	}
	if tb.s.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d after expiry", tb.s.QueueDepth())
	}
}

func TestReleaseTenantCancelsQueuedJobs(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{})
	tb.addReactor("a", "flow-1")
	tb.converge()

	var errs []error
	for i := 0; i < 3; i++ {
		// Unroutable kind: the jobs park in the tenant queue.
		tb.s.Submit(Job{Tenant: "dead", Origin: "a", Kind: "_xrd._aisle",
			Cmd: validCmd("x")}, func(_ instrument.Result, err error) {
			errs = append(errs, err)
		})
	}
	tb.runFor(sim.Minute)
	if tb.s.QueueDepth() != 3 {
		t.Fatalf("queue depth = %d before release", tb.s.QueueDepth())
	}

	tb.s.ReleaseTenant("dead")
	if tb.s.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d after release", tb.s.QueueDepth())
	}
	if len(errs) != 3 {
		t.Fatalf("got %d terminal callbacks, want 3", len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	}
}

func TestReleaseTenantCancelsStolenInTransit(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a", "b"}, Options{MaxInFlightPerInstrument: 1})
	tb.addReactor("a", "flow-a")
	tb.addReactor("b", "flow-b")
	tb.converge()

	outcomes := 0
	for i := 0; i < 12; i++ {
		tb.s.Submit(Job{Tenant: "t", Origin: "a", Kind: instrument.KindFlowReactor,
			Cmd: validCmd("x")}, func(instrument.Result, error) { outcomes++ })
	}
	// Step until a steal batch is on the wire (its 30ms arrival event is
	// scheduled but not yet fired), then release the tenant mid-transit.
	for i := 0; i < 100000 && tb.s.metrics.Counter("sched.steals").Value() == 0; i++ {
		tb.runFor(5 * sim.Millisecond)
	}
	if tb.s.metrics.Counter("sched.steals").Value() == 0 {
		t.Fatal("no steal occurred; scenario did not form")
	}
	tb.s.ReleaseTenant("t")
	tb.runFor(time30m())

	// Every job reaches exactly one terminal outcome: the in-flight ones
	// complete, the queued and in-transit ones are canceled.
	if outcomes != 12 {
		t.Fatalf("terminal outcomes = %d, want 12", outcomes)
	}
	for _, sid := range []netsim.SiteID{"a", "b"} {
		if _, ok := tb.s.sites[sid].tenants["t"]; ok {
			t.Fatalf("released tenant resurrected at %s", sid)
		}
	}
	if tb.s.QueueDepth() != 0 || len(tb.s.transit) != 0 {
		t.Fatalf("leftover state: queued %d, transit %d", tb.s.QueueDepth(), len(tb.s.transit))
	}
}

func TestSubmitErrors(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{})
	var err1, err2 error
	tb.s.Submit(Job{Tenant: "c", Origin: "ghost"}, func(_ instrument.Result, err error) { err1 = err })
	tb.s.Submit(Job{Origin: "a"}, func(_ instrument.Result, err error) { err2 = err })
	if err1 == nil || err2 == nil {
		t.Fatalf("bad submissions must error synchronously: %v, %v", err1, err2)
	}
}

func TestMinCapsFilterRouting(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{})
	tb.addReactor("a", "flow-1")
	tb.converge()

	done := false
	// Fluidic reactors advertise volume_mL 0.02; demanding 1 mL must leave
	// the job queued (unroutable), not dispatched somewhere wrong.
	tb.s.Submit(Job{Tenant: "c", Origin: "a", Kind: instrument.KindFlowReactor,
		MinCaps: map[string]float64{"volume_mL": 1},
		Cmd:     validCmd("x")}, func(res instrument.Result, err error) { done = true })
	tb.runFor(10 * sim.Minute)

	if done {
		t.Fatal("job with unsatisfiable capability floor was dispatched")
	}
	if tb.s.QueueDepth() != 1 {
		t.Fatalf("queue depth = %d, want the unroutable job parked", tb.s.QueueDepth())
	}
}

// addBatchReactor installs a slow (30-minute action) synthesis robot, for
// tests that need work to stay in flight across recovery sweeps.
func (tb *testbed) addBatchReactor(site netsim.SiteID, id string) *instrument.Instrument {
	in := instrument.NewBatchReactor(tb.eng, tb.rnd, id, string(site), twin.Perovskite{})
	d := in.Descriptor()
	tb.fleets[site].Add(in)
	endpoint := "instr/" + d.ID
	tb.fab.Broker(site).Register(endpoint, func(env *bus.Envelope, respond func(any, error)) {
		in.Submit(env.Payload.(instrument.Command), func(res instrument.Result) {
			respond(res, res.Err)
		})
	})
	tb.dir.Registry(site).Register(discovery.Record{
		Instance:     string(site) + "/" + d.ID,
		Type:         d.Kind,
		Addr:         bus.Address{Site: site, Name: endpoint},
		Capabilities: d.Capabilities,
	})
	return in
}

func TestRetryRecoversFromInstrumentFailure(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{})
	in := tb.addReactor("a", "flow-1")
	tb.converge()

	// First attempt is guaranteed to fail; the instrument then repairs and
	// the retry must land without the caller seeing the failure.
	in.SetFailureProb(1)
	var calls int
	var lastErr error
	tb.s.Submit(Job{Tenant: "t", Origin: "a", Kind: instrument.KindFlowReactor,
		Cmd: validCmd("s-1"), MaxRetries: 2}, func(res instrument.Result, err error) {
		calls++
		lastErr = err
	})
	tb.runFor(time30m())
	in.SetFailureProb(0)
	tb.runFor(2 * sim.Hour)

	if calls != 1 {
		t.Fatalf("callback ran %d times, want exactly 1", calls)
	}
	if lastErr != nil {
		t.Fatalf("job should have succeeded on retry, got %v", lastErr)
	}
	if got := tb.s.metrics.Counter(telemetry.Key("sched.retries", "site", "a", "tenant", "t")).Value(); got < 1 {
		t.Fatalf("sched.retries{site=a,tenant=t} = %d, want >= 1", got)
	}
	if got := tb.s.metrics.Counter(telemetry.Key("sched.requeues", "reason", "failure")).Value(); got < 1 {
		t.Fatalf("sched.requeues{reason=failure} = %d, want >= 1", got)
	}
}

func TestRetryBudgetExhaustedSurfacesTerminalError(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{})
	in := tb.addReactor("a", "flow-1")
	tb.converge()

	in.SetFailureProb(1) // every attempt fails
	var calls int
	var lastErr error
	tb.s.Submit(Job{Tenant: "t", Origin: "a", Kind: instrument.KindFlowReactor,
		Cmd: validCmd("s-1"), MaxRetries: 1}, func(res instrument.Result, err error) {
		calls++
		lastErr = err
	})
	tb.runFor(3 * sim.Hour)

	if calls != 1 {
		t.Fatalf("callback ran %d times, want exactly 1", calls)
	}
	if lastErr == nil {
		t.Fatal("exhausted retry budget must surface the failure")
	}
}

func TestRecoverReroutesFromDownInstrument(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a", "b"}, Options{Recover: true})
	inA := tb.addBatchReactor("a", "batch-a")
	tb.addBatchReactor("b", "batch-b")
	tb.converge()

	var calls int
	var lastErr error
	tb.s.Submit(Job{Tenant: "t", Origin: "a", Kind: instrument.KindSynthesis,
		Cmd: validCmd("s-1")}, func(res instrument.Result, err error) {
		calls++
		lastErr = err
	})
	tb.runFor(2 * sim.Minute) // dispatched to a (local preferred), mid-action
	if tb.s.InFlight() != 1 {
		t.Fatalf("in-flight = %d, want 1", tb.s.InFlight())
	}
	inA.ForceDown(6 * sim.Hour)
	tb.runFor(4 * sim.Hour)

	if calls != 1 {
		t.Fatalf("callback ran %d times, want exactly 1", calls)
	}
	if lastErr != nil {
		t.Fatalf("rescued job should complete at the peer site, got %v", lastErr)
	}
	if got := tb.s.metrics.Counter(telemetry.Key("sched.requeues", "reason", "site-down")).Value(); got != 1 {
		t.Fatalf("sched.requeues{reason=site-down} = %d, want 1", got)
	}
	// The doomed first dispatch still runs to completion on the device; its
	// late reply must be discarded by the epoch guard, not double-complete.
	if got := tb.s.metrics.Counter("sched.stale_replies").Value(); got != 1 {
		t.Fatalf("sched.stale_replies = %d, want 1", got)
	}
}

func TestRecoverReroutesFromPartitionedSite(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a", "b"}, Options{Recover: true})
	tb.addBatchReactor("b", "batch-b") // only b can run the job
	tb.converge()

	var calls int
	var lastErr error
	tb.s.Submit(Job{Tenant: "t", Origin: "a", Kind: instrument.KindSynthesis,
		Cmd: validCmd("s-1")}, func(res instrument.Result, err error) {
		calls++
		lastErr = err
	})
	tb.runFor(2 * sim.Minute) // dispatched across the WAN to b
	if tb.s.InFlight() != 1 {
		t.Fatalf("in-flight = %d, want 1", tb.s.InFlight())
	}
	tb.net.SetLinkUp("a", "b", false)
	tb.runFor(10 * sim.Minute) // sweep rescues; job unroutable while dark
	if got := tb.s.metrics.Counter(telemetry.Key("sched.requeues", "reason", "unreachable")).Value(); got != 1 {
		t.Fatalf("sched.requeues{reason=unreachable} = %d, want 1", got)
	}
	if calls != 0 {
		t.Fatalf("job terminated while its only site was unreachable (calls=%d err=%v)", calls, lastErr)
	}
	tb.net.SetLinkUp("a", "b", true)
	tb.runFor(2 * sim.Hour)

	if calls != 1 {
		t.Fatalf("callback ran %d times, want exactly 1", calls)
	}
	if lastErr != nil {
		t.Fatalf("job should complete after the partition heals, got %v", lastErr)
	}
}

func TestTryDispatchFailsFastOnExpiredJob(t *testing.T) {
	// A huge repump interval keeps the background sweep out of the picture:
	// the expiry must come from the dispatch path itself when capacity
	// finally frees for a job whose Timeout already elapsed in queue.
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{
		MaxInFlightPerInstrument: 1, RepumpInterval: 6 * sim.Hour, AgingStep: -1,
	})
	tb.addBatchReactor("a", "batch-a")
	tb.converge()

	var firstErr, secondErr error
	first, second := 0, 0
	tb.s.Submit(Job{Tenant: "t", Origin: "a", Kind: instrument.KindSynthesis,
		Cmd: validCmd("s-long")}, func(res instrument.Result, err error) {
		first++
		firstErr = err
	})
	tb.s.Submit(Job{Tenant: "t", Origin: "a", Kind: instrument.KindSynthesis,
		Cmd: validCmd("s-dead"), Timeout: 2 * sim.Minute}, func(res instrument.Result, err error) {
		second++
		secondErr = err
	})
	tb.runFor(time30m() + 10*sim.Minute) // first completes (~30m), freeing capacity

	if first != 1 || firstErr != nil {
		t.Fatalf("first job: calls=%d err=%v", first, firstErr)
	}
	if second != 1 {
		t.Fatalf("second job callback ran %d times, want 1", second)
	}
	if !errors.Is(secondErr, ErrExpired) {
		t.Fatalf("second job error = %v, want ErrExpired", secondErr)
	}
	// It must have failed fast, never shipped to the instrument.
	if got := tb.s.metrics.Counter("sched.dispatched").Value(); got != 1 {
		t.Fatalf("sched.dispatched = %d, want 1 (expired job must not dispatch)", got)
	}
}
