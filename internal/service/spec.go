// Package service is the campaign-as-a-service layer over the GOOFI engine:
// a multi-tenant daemon that accepts campaign submissions over a JSON/HTTP
// API, queues them behind a bounded-concurrency scheduler, executes each
// against its own database file in its tenant's directory, streams live
// CampaignEvent frames, and survives SIGTERM by saving in-flight campaigns
// and persisting the queue for resume on restart.
//
// The genericity argument of the paper (§3) — one engine, many targets —
// extends here to many clients: campaigns from independent tenants share the
// process but nothing else. Each tenant owns a database directory; each
// campaign owns a database file, recorder and event broadcaster. Whatever
// its width, a campaign is one runner whose rows are bit-identical to a
// single-process run (the pre-drawn-plan determinism the parallel engine
// already guarantees).
package service

import (
	"fmt"
	"strings"
	"time"

	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/target"
	"goofi/internal/workload"
)

// Spec is one campaign submission — the JSON body of POST /campaigns. The
// engine knobs (workers, shards, retries, timeout, chaos) parallel the flags
// of goofi run; the campaign definition fields parallel goofi setup.
type Spec struct {
	// Tenant names the submitting tenant; it becomes the database directory
	// under the service data dir, so it must be a path-safe slug.
	Tenant string `json:"tenant"`
	// Campaign is the campaign name, unique per tenant; it becomes the
	// database file name.
	Campaign string `json:"campaign"`

	Workload    string `json:"workload"`
	Technique   string `json:"technique,omitempty"` // default scifi
	Model       string `json:"model,omitempty"`     // default transient
	Locations   string `json:"locations"`
	Trigger     string `json:"trigger,omitempty"`
	Experiments int    `json:"experiments"`
	Seed        int64  `json:"seed"`
	TMin        uint64 `json:"tmin,omitempty"` // default 10
	TMax        uint64 `json:"tmax,omitempty"` // default 1000
	Notes       string `json:"notes,omitempty"`

	// Workers is the campaign's worker count (goofi run -workers).
	Workers int `json:"workers,omitempty"`
	// Shards multiplies the width: the campaign runs on
	// max(Workers,1) × max(Shards,1) workers of one runner. Kept for clients
	// that set it; rows are bit-identical whatever the width.
	Shards int `json:"shards,omitempty"`
	// Retries and Timeout arm the fault-tolerance layer per experiment.
	Retries int    `json:"retries,omitempty"`
	Timeout string `json:"timeout,omitempty"` // Go duration, e.g. "30s"
	// Chaos wraps every target in the flaky chaos injector
	// (goofi run -chaos), e.g. "err=0.03,panic=0.01,seed=7".
	Chaos string `json:"chaos,omitempty"`
}

// ID is the campaign's service-wide identity: tenant/campaign.
func (s Spec) ID() string { return s.Tenant + "/" + s.Campaign }

// slugOK reports whether a tenant or campaign name is safe to use as a path
// component: non-empty, and only letters, digits, dot, underscore and dash —
// with no leading dot, so no hidden files and no "." / "..".
func slugOK(s string) bool {
	if s == "" || len(s) > 128 || s[0] == '.' {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}

// Validate checks the submission shape: identity slugs, a resolvable
// workload and fault model, and sane engine knobs. Target-dependent
// validation (location filters against the chain inventory) happens when the
// campaign runs.
func (s Spec) Validate() error {
	if !slugOK(s.Tenant) {
		return fmt.Errorf("service: tenant %q is not a valid slug", s.Tenant)
	}
	if !slugOK(s.Campaign) {
		return fmt.Errorf("service: campaign %q is not a valid slug", s.Campaign)
	}
	if _, err := s.campaign(); err != nil {
		return err
	}
	if s.Shards < 0 || s.Workers < 0 || s.Retries < 0 {
		return fmt.Errorf("service: %s: negative shards/workers/retries", s.ID())
	}
	return nil
}

// campaign builds the core campaign this spec describes, applying the same
// defaults and chaos arming as goofi run.
func (s Spec) campaign() (core.Campaign, error) {
	w, err := workload.Get(s.Workload)
	if err != nil {
		return core.Campaign{}, fmt.Errorf("service: %s: %w", s.ID(), err)
	}
	model := s.Model
	if model == "" {
		model = "transient"
	}
	m, err := faultmodel.ParseModel(model)
	if err != nil {
		return core.Campaign{}, fmt.Errorf("service: %s: %w", s.ID(), err)
	}
	tech := s.Technique
	if tech == "" {
		tech = core.TechSCIFI
	}
	tmin, tmax := s.TMin, s.TMax
	if tmin == 0 {
		tmin = 10
	}
	if tmax == 0 {
		tmax = 1000
	}
	c := core.Campaign{
		Name:           s.Campaign,
		Workload:       w,
		Technique:      tech,
		Model:          m,
		LocationFilter: faultmodel.Filter(s.Locations),
		TriggerSpec:    s.Trigger,
		NExperiments:   s.Experiments,
		Seed:           s.Seed,
		InjectMinTime:  tmin,
		InjectMaxTime:  tmax,
		Notes:          s.Notes,
		Workers:        max(s.Workers, 1) * max(s.Shards, 1),
		RetryLimit:     s.Retries,
	}
	if s.Timeout != "" {
		d, err := time.ParseDuration(s.Timeout)
		if err != nil {
			return core.Campaign{}, fmt.Errorf("service: %s: timeout: %w", s.ID(), err)
		}
		c.ExperimentTimeout = d
	}
	if s.Chaos != "" {
		cfg, err := target.ParseFlakyConfig(s.Chaos)
		if err != nil {
			return core.Campaign{}, fmt.Errorf("service: %s: %w", s.ID(), err)
		}
		// A chaos campaign needs the robustness layer armed, exactly like
		// goofi run -chaos: default retry budget, and a watchdog when the
		// chaos includes hangs.
		if c.RetryLimit == 0 {
			c.RetryLimit = 3
		}
		if cfg.HangRate > 0 && c.ExperimentTimeout <= 0 {
			c.ExperimentTimeout = 30 * time.Second
		}
	}
	if c.NExperiments <= 0 {
		return core.Campaign{}, fmt.Errorf("service: %s: experiments must be positive", s.ID())
	}
	return c, nil
}

// splitID parses "tenant/campaign" back into its parts.
func splitID(id string) (tenant, campaign string, ok bool) {
	tenant, campaign, ok = strings.Cut(id, "/")
	return tenant, campaign, ok && tenant != "" && campaign != ""
}
