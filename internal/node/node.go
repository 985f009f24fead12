// Package node assembles the sites of a mirrored OIS server: one
// central site and N mirror sites, each with everything a deployment
// wires around the core state machines — the mirror's directive
// applier and takeover counters, the central's adaptation controller
// hooks, the slab-pool metrics, and each site's status document. It is
// the one place outside internal/core that builds a core.Central or a
// core.MirrorSite.
//
// Two transports join the sites. In-process, Mirror.Link gives the
// central direct function-call links (the cluster harness; the chaos
// rig wraps its own fault-plane closures around the same handlers).
// Over TCP, ServeCentral and ServeMirror run the ECho event-channel
// protocol that cmd/mirrord deploys.
package node

import (
	"fmt"
	"sync/atomic"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/core"
	"adaptmirror/internal/event"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/status"
)

// CentralConfig parameterizes a central site.
type CentralConfig struct {
	// CentralConfig is the core site configuration. Its OnMirrorSample
	// is replaced: mirror samples route to Controller.
	core.CentralConfig
	// Controller, when non-nil, adapts the site: it installs regimes
	// on the central, observes the central's sample at every round,
	// piggybacks the current regime on CHKPT traffic, receives every
	// mirror's piggybacked samples keyed by site, and exports its
	// metrics on Obs.
	Controller *adapt.Controller
	// Audit, when non-nil, records Controller's transitions.
	Audit *obs.AuditLog
}

// Central is an assembled central site.
type Central struct {
	*core.Central
	site  string
	obs   *obs.Registry
	ctl   atomic.Pointer[adapt.Controller]
	audit atomic.Pointer[obs.AuditLog]
}

// NewCentral builds and starts a central site.
func NewCentral(cfg CentralConfig) *Central {
	c := &Central{site: cfg.Site, obs: cfg.Obs}
	registerSlabMetrics(cfg.Obs)
	cc := cfg.CentralConfig
	cc.OnMirrorSample = func(site int, s core.Sample) {
		if ctl := c.ctl.Load(); ctl != nil {
			ctl.ObserveSite(site, s)
		}
	}
	c.Central = core.NewCentral(cc)
	if cfg.Controller != nil {
		c.Adapt(cfg.Controller, cfg.Audit)
	}
	return c
}

// Adapt attaches an adaptation controller to a running site (see
// CentralConfig.Controller). It is meant to be called once.
func (c *Central) Adapt(ctl *adapt.Controller, audit *obs.AuditLog) {
	ctl.SetApply(adapt.InstallRegime(c.Central))
	if audit != nil {
		ctl.SetAudit(audit)
		c.audit.Store(audit)
	}
	ctl.RegisterMetrics(c.obs)
	c.Central.SetPiggyback(func() []byte {
		ctl.Observe(c.Central.Sample())
		return adapt.EncodeRegime(ctl.Current())
	})
	c.ctl.Store(ctl)
}

// Obs returns the site's metrics registry.
func (c *Central) Obs() *obs.Registry { return c.obs }

// Controller returns the attached adaptation controller (nil when
// the site does not adapt).
func (c *Central) Controller() *adapt.Controller { return c.ctl.Load() }

// Status builds the aggregated /cluster/status document. siteRegimes,
// when non-nil, supplies the mirrors' installed regimes (in-process
// deployments read them from the appliers directly).
func (c *Central) Status(siteRegimes map[int]status.SiteRegime) status.Document {
	return status.Central(status.CentralSources{
		Site:        c.site,
		Central:     c.Central,
		Controller:  c.Controller(),
		Audit:       c.audit.Load(),
		SiteRegimes: siteRegimes,
	})
}

// MirrorConfig parameterizes a mirror site.
type MirrorConfig struct {
	// MirrorSiteConfig is the core site configuration. Its OnPiggyback
	// is replaced: directives go to the site's applier.
	core.MirrorSiteConfig
	// OnInstall, when non-nil, is called after the applier installs a
	// directive, with the round that carried it.
	OnInstall func(round uint64)
}

// Mirror is an assembled mirror site.
type Mirror struct {
	*core.MirrorSite
	// Applier consumes the adaptation directives the central
	// piggybacks on checkpoint traffic (and delivers in recovery
	// transfers), installing them on the site with round-watermark
	// dedup. Every mirror has one, so every mirror exports
	// adapt_regime_id.
	Applier *adapt.Applier
	// Name is the site's metric label ("mirror<SiteID>" by default).
	Name string

	obs   *obs.Registry
	stats *core.TakeoverStats
	rt    atomic.Pointer[core.Takeover]
}

// NewMirror builds and starts a mirror site.
func NewMirror(cfg MirrorConfig) *Mirror {
	m := &Mirror{Applier: adapt.NewApplier(nil), Name: cfg.Site, obs: cfg.Obs}
	if m.Name == "" {
		m.Name = fmt.Sprintf("mirror%d", cfg.SiteID)
	}
	registerSlabMetrics(cfg.Obs)
	m.Applier.RegisterMetrics(cfg.Obs, m.Name)
	// The takeover counters are part of every mirror's metrics surface,
	// armed or not, so dashboards see the full shape from boot.
	m.stats = core.RegisterTakeoverMetrics(cfg.Obs, m.Name)
	mc := cfg.MirrorSiteConfig
	mc.OnPiggyback = func(round uint64, b []byte) { m.Applier.Apply(round, b) }
	m.MirrorSite = core.NewMirrorSite(mc)
	install := adapt.InstallMirrorRegime(m.MirrorSite)
	if cfg.OnInstall == nil {
		m.Applier.SetInstall(install)
	} else {
		m.Applier.SetInstall(func(round uint64, reg adapt.Regime) {
			install(round, reg)
			cfg.OnInstall(round)
		})
	}
	return m
}

// HandleControl dispatches control-downlink traffic: takeover frames
// (TAKEOVER announcements, ELECT claims) to the armed takeover
// runtime, everything else to the checkpoint state machine.
func (m *Mirror) HandleControl(e *event.Event) {
	if rt := m.rt.Load(); rt != nil && rt.HandleControl(e) {
		return
	}
	m.MirrorSite.HandleControl(e)
}

// ArmTakeover arms the site's central-takeover runtime. tc carries
// the deployment's part (manifest, budget, interval, membership,
// transport); the site, its directive source and its counters are
// filled in here. central is the template a promotion builds the
// replacement central from, through NewCentral.
func (m *Mirror) ArmTakeover(tc core.TakeoverConfig, central CentralConfig) (*core.Takeover, error) {
	tc.Site = m.MirrorSite
	tc.Stats = m.stats
	tc.Directive = func() ([]byte, uint64, bool) {
		reg, round, ok := m.Applier.Current()
		return adapt.EncodeRegime(reg), round, ok
	}
	tc.Central = central.CentralConfig
	tc.NewCentral = func(cc core.CentralConfig) *core.Central {
		nc := central
		nc.CentralConfig = cc
		return NewCentral(nc).Central
	}
	rt, err := core.NewTakeover(tc)
	if err != nil {
		return nil, err
	}
	m.rt.Store(rt)
	return rt, nil
}

// Obs returns the site's metrics registry.
func (m *Mirror) Obs() *obs.Registry { return m.obs }

// Takeover returns the armed takeover runtime (nil when disarmed).
func (m *Mirror) Takeover() *core.Takeover { return m.rt.Load() }

// Status builds the site's local status document.
func (m *Mirror) Status() status.Document {
	return status.Mirror(m.Name, m.MirrorSite, m.Applier)
}

// Link returns the central's direct (function-call) link to m: data
// batches keep the zero-copy owned-slab path, control goes through
// HandleControl.
func (m *Mirror) Link() core.MirrorLink {
	return core.MirrorLink{Data: directData{m.MirrorSite}, Ctrl: directCtrl{m}}
}

type directData struct{ m *core.MirrorSite }

func (d directData) Submit(e *event.Event) error         { d.m.HandleData(e); return nil }
func (d directData) SubmitBatch(es []*event.Event) error { d.m.HandleDataBatch(es); return nil }
func (d directData) SubmitOwned(es []*event.Event, ref event.Ref) error {
	return d.m.HandleOwnedBatch(es, ref)
}

type directCtrl struct{ m *Mirror }

func (d directCtrl) Submit(e *event.Event) error { d.m.HandleControl(e); return nil }

// registerSlabMetrics exports the process-wide batch-frame slab-pool
// counters on a site registry (they are global to the event package,
// so every site of one process reports the same values; registering
// them again on a shared registry is a no-op).
func registerSlabMetrics(r *obs.Registry) {
	r.Describe("slab_pool_hit_total", "Batch-frame slabs served from the pool.")
	r.Describe("slab_pool_miss_total", "Batch-frame slabs freshly allocated on pool miss.")
	r.Describe("slab_pool_retained_total", "Batch-frame slabs returned to the pool for reuse.")
	r.CounterFunc("slab_pool_hit_total", func() float64 { h, _, _ := event.SlabPoolStats(); return float64(h) })
	r.CounterFunc("slab_pool_miss_total", func() float64 { _, m, _ := event.SlabPoolStats(); return float64(m) })
	r.CounterFunc("slab_pool_retained_total", func() float64 { _, _, r := event.SlabPoolStats(); return float64(r) })
}
