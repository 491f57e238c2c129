package sched

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aisle-sim/aisle/internal/instrument"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/prof"
	"github.com/aisle-sim/aisle/internal/sim"
)

// refServe is the reference service order serve must reproduce exactly:
// backlogged tenant IDs sorted, grouped by effective class, classes tried
// highest first, a stable (vtime, ID) sort within each class, and the
// winner of each dispatch put back into its class by sorted reinsertion.
func refServe(s *Scheduler, ss *siteSched, try func(*siteSched, *tenantQ) bool) {
	ids := make([]string, 0, len(ss.tenants))
	for id, t := range ss.tenants {
		if len(t.jobs) > 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	byClass := make(map[int][]*tenantQ)
	var classes []int
	for _, id := range ids {
		t := ss.tenants[id]
		c := s.effClass(t)
		if _, ok := byClass[c]; !ok {
			classes = append(classes, c)
		}
		byClass[c] = append(byClass[c], t)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(classes)))
	before := func(a, b *tenantQ) bool {
		if a.vtime != b.vtime {
			return a.vtime < b.vtime
		}
		return a.cfg.ID < b.cfg.ID
	}
	for _, cl := range classes {
		group := byClass[cl]
		sort.SliceStable(group, func(i, j int) bool { return before(group[i], group[j]) })
		for len(group) > 0 {
			t := group[0]
			group = group[1:]
			if !try(ss, t) {
				continue
			}
			t.vtime += 1 / t.cfg.Weight
			if len(t.jobs) == 0 {
				continue
			}
			i := sort.Search(len(group), func(j int) bool { return before(t, group[j]) })
			group = append(group[:i], append([]*tenantQ{t}, group[i:]...)...)
		}
	}
}

// pumpWeights mixes exact strides (which tie often) into the weight range.
var pumpWeights = []float64{0.05, 0.25, 0.5, 1, 2, 4, 8}

// FuzzPumpOrder checks that serve offers tenants to tryDispatch in exactly
// refServe's order. The input picks the tenants (weight in [0.05, 8],
// vtime on a coarse grid so ties are common, base class, head age spanning
// several AgingSteps, backlog) and then, one bit per offer, whether the
// offered head dispatches or is blocked.
func FuzzPumpOrder(f *testing.F) {
	f.Add([]byte{4, 1, 0, 0, 0, 0, 2, 3, 0, 1, 1, 0, 3, 6, 0, 2, 2, 100, 2, 9, 2, 0, 0, 255, 3, 0xff, 0x0f})
	f.Add([]byte{11, 0, 3, 3, 3, 3, 3, 7, 7, 7, 7, 7, 1, 2, 1, 20, 1, 0xaa, 0x55, 0xff, 0xff})
	f.Add([]byte{7, 2, 40, 1, 1, 64, 3, 0, 8, 2, 2, 128, 3, 0, 1, 0, 0, 0, 1, 0xf0, 0xff, 0x3c})
	// An aged head wins twice: the fresh job behind it must not demote it
	// below the younger tenant within the pump.
	f.Add([]byte{0, 1, 6, 1, 0, 64, 1, 6, 1, 0, 0, 0, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		const now = 10 * sim.Hour
		eng := sim.NewEngine()
		_ = eng.RunUntil(now)
		s := &Scheduler{eng: eng}
		if next()&1 == 1 {
			s.opts.AgingStep = -1 // aging disabled
		}
		s.opts.defaults()
		step := 30 * sim.Minute

		type spec struct {
			cfg   TenantConfig
			vtime float64
			age   sim.Time
			jobs  int
		}
		specs := make([]spec, 1+int(next()%12))
		for i := range specs {
			w := next()
			weight := 0.05 + float64(w)/255*7.95
			if w&1 == 0 {
				weight = pumpWeights[int(w/2)%len(pumpWeights)]
			}
			specs[i] = spec{
				cfg: TenantConfig{
					ID:     fmt.Sprintf("t%02d", i),
					Weight: weight,
					Class:  Class(int(next()%3) - 1),
				},
				vtime: float64(next()%4) * 0.5,
				age:   sim.Time(next()) * step / 64,
				jobs:  1 + int(next()%4),
			}
		}
		outcomes := data

		// build gives each tenant its head job aged as specified and fresh
		// jobs behind it, so an order that re-read the class after a
		// dispatch would diverge.
		build := func() *siteSched {
			ss := &siteSched{tenants: make(map[string]*tenantQ)}
			for _, sp := range specs {
				tq := &tenantQ{cfg: sp.cfg, vtime: sp.vtime}
				for j := 0; j < sp.jobs; j++ {
					enq := now
					if j == 0 {
						enq = now - sp.age
					}
					tq.jobs = append(tq.jobs, &queuedJob{enqueued: enq})
				}
				ss.tenants[sp.cfg.ID] = tq
				ss.queued += sp.jobs
			}
			return ss
		}
		offer := func(log *[]string) func(*siteSched, *tenantQ) bool {
			k := 0
			return func(ss *siteSched, tq *tenantQ) bool {
				*log = append(*log, tq.cfg.ID)
				ok := k/8 < len(outcomes) && outcomes[k/8]>>(k%8)&1 == 1
				k++
				if ok {
					tq.jobs = tq.jobs[1:]
					ss.queued--
				}
				return ok
			}
		}

		want, got := build(), build()
		var wantLog, gotLog []string
		refServe(s, want, offer(&wantLog))
		s.serve(got, offer(&gotLog))

		if fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
			t.Fatalf("offer order\n got %v\nwant %v", gotLog, wantLog)
		}
		for id, w := range want.tenants {
			g := got.tenants[id]
			if g.vtime != w.vtime || len(g.jobs) != len(w.jobs) {
				t.Fatalf("tenant %s: vtime %v jobs %d, want vtime %v jobs %d",
					id, g.vtime, len(g.jobs), w.vtime, len(w.jobs))
			}
		}
		for i, tq := range got.serving[:cap(got.serving)] {
			if tq != nil {
				t.Fatalf("serving[%d] still holds tenant %s after the pump", i, tq.cfg.ID)
			}
		}
	})
}

// routeCount reads the profiler's sched.route call count.
func routeCount(p *prof.Profiler) uint64 {
	for _, c := range p.Counts() {
		if c.Site == prof.SiteSchedRoute.String() {
			return c.Count
		}
	}
	return 0
}

// TestBlockedKindRoutedOncePerPump pins the scope of the per-pump memo of
// blocked kinds: it blocks only the kind that failed to route, and only
// heads without capability floors consult it.
func TestBlockedKindRoutedOncePerPump(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{MaxInFlightPerInstrument: 1})
	tb.addReactor("a", "flow-1")
	tb.addBatchReactor("a", "batch-1")
	tb.converge()
	tb.s.Prof = prof.New(prof.Options{Enabled: true})
	var dispatched []string
	tb.s.Observer = func(d Decision) {
		if d.Kind == DecisionDispatch {
			dispatched = append(dispatched, d.Tenant)
		}
	}

	done := 0
	submit := func(tenant, kind string, minCaps map[string]float64) {
		tb.s.Submit(Job{Tenant: tenant, Origin: "a", Kind: kind, MinCaps: minCaps,
			Cmd: validCmd(tenant)}, func(_ instrument.Result, err error) {
			if err != nil {
				t.Errorf("%s: %v", tenant, err)
			}
			done++
		})
	}
	// Service order is by ID: a1 takes the only flow slot, a2 finds the
	// flow kind saturated, a3 must not route it again, b1 still reaches the
	// idle batch reactor, and m1's capability floor (which the reactor
	// meets) makes it route despite the memo.
	submit("a1", instrument.KindFlowReactor, nil)
	submit("a2", instrument.KindFlowReactor, nil)
	submit("a3", instrument.KindFlowReactor, nil)
	submit("b1", instrument.KindSynthesis, nil)
	submit("m1", instrument.KindFlowReactor, map[string]float64{"volume_mL": 0.01})
	before := routeCount(tb.s.Prof)
	tb.runFor(sim.Millisecond)

	if got := fmt.Sprint(dispatched); got != "[a1 b1]" {
		t.Fatalf("dispatched %s in the first pump, want [a1 b1]", got)
	}
	if got := routeCount(tb.s.Prof) - before; got != 4 {
		t.Fatalf("first pump routed %d times, want 4 (a1, a2, b1, m1)", got)
	}
	tb.runFor(3 * sim.Hour)
	if done != 5 {
		t.Fatalf("%d of 5 jobs completed", done)
	}
}

// leakProbe is reachable only through one tenant's job callbacks; its
// finalizer reports when the tenant's queue has become garbage.
type leakProbe struct {
	tenant string
	hits   int
	_      [64]byte
}

// TestReleasedTenantUnreachableAfterPump checks that the pump's reused
// service order does not keep released tenants — and through their job
// callbacks everything the submitter captured — alive. Enough tenants hold
// enough jobs that dispatch winners move inside the order, the pattern
// that once left stale tenants in the slice's spare capacity.
func TestReleasedTenantUnreachableAfterPump(t *testing.T) {
	tb := newTestbed(t, []netsim.SiteID{"a"}, Options{MaxInFlightPerInstrument: 4})
	tb.addReactor("a", "flow-1")
	tb.converge()

	const tenants = 40
	var freed atomic.Int32
	func() {
		for i := 0; i < tenants; i++ {
			p := &leakProbe{tenant: fmt.Sprintf("t%02d", i)}
			runtime.SetFinalizer(p, func(*leakProbe) { freed.Add(1) })
			for j := 0; j < 3; j++ {
				tb.s.Submit(Job{Tenant: p.tenant, Origin: "a", Kind: instrument.KindFlowReactor,
					Cmd: validCmd(p.tenant)}, func(instrument.Result, error) { p.hits++ })
			}
		}
	}()
	tb.runFor(sim.Millisecond)
	if got := tb.s.InFlight(); got != 4 {
		t.Fatalf("in flight = %d after the first pump, want 4", got)
	}
	for i := 0; i < tenants; i++ {
		tb.s.ReleaseTenant(fmt.Sprintf("t%02d", i))
	}
	// The in-flight jobs complete, and each completion pumps the site.
	tb.runFor(2 * sim.Hour)
	if got := tb.s.InFlight(); got != 0 {
		t.Fatalf("in flight = %d, want every dispatch completed", got)
	}

	for i := 0; i < 20 && freed.Load() < tenants; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != tenants {
		t.Fatalf("%d of %d released tenants were collected", got, tenants)
	}
}
