// Package analysis implements GOOFI's analysis phase (paper §3.4): it reads
// the LoggedSystemState table, compares each experiment's logged state with
// the fault-free reference run, and classifies the outcome into the paper's
// taxonomy:
//
//	Effective errors
//	    Detected errors     — an error detection mechanism fired (broken
//	                          down per mechanism)
//	    Escaped errors      — incorrect results or timeliness violations
//	Non-effective errors
//	    Latent errors       — state differences that were neither detected
//	                          nor visible in the results
//	    Overwritten errors  — no observable difference at all
//
// It also computes error-detection coverage with a confidence interval and
// implements the §4 extension "automatic generation of software for
// analysing the LoggedSystemState table" by emitting (and executing) SQL
// aggregate scripts over the classification.
package analysis

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"

	"goofi/internal/core"
	"goofi/internal/dbase"
	"goofi/internal/target"
)

// Outcome classification labels stored in AnalysisResult.outcome.
const (
	OutcomeDetected    = "detected"
	OutcomeEscaped     = "escaped"
	OutcomeLatent      = "latent"
	OutcomeOverwritten = "overwritten"
)

// Interval is a binomial proportion confidence interval.
type Interval struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Report is the campaign-level analysis result. The JSON tags give the CLI
// a stable machine-readable export format.
type Report struct {
	Campaign string `json:"campaign"`
	// Total counts classified fault-injection experiments (the reference
	// run and detail reruns are excluded).
	Total int `json:"total"`
	// Counts maps outcome label to experiment count.
	Counts map[string]int `json:"outcomes"`
	// PerMechanism breaks down detected errors by EDM.
	PerMechanism map[string]int `json:"perMechanism"`
	// Failed counts experiments lost to tool-level target failures ("failed"
	// rows); they are excluded from the outcome taxonomy and from Total.
	Failed int `json:"failed"`
	// Effective = Detected + Escaped; NonEffective = Latent + Overwritten.
	Effective    int `json:"effective"`
	NonEffective int `json:"nonEffective"`
	// Coverage is Detected / Effective — the error detection coverage the
	// paper's campaigns estimate; CI is its 95% Wilson interval.
	Coverage float64  `json:"coverage"`
	CI       Interval `json:"coverageCI"`
}

// Classify analyses every experiment of a campaign against its reference
// run, stores one AnalysisResult row per experiment, and returns the report.
func Classify(store *dbase.Store, campaign string) (Report, error) {
	ref, err := store.GetExperiment(campaign + core.RefSuffix)
	if err != nil {
		return Report{}, fmt.Errorf("analysis: reference run: %w", err)
	}
	refChains, refOutputs, err := core.StateSections(ref.StateVector)
	if err != nil {
		return Report{}, fmt.Errorf("analysis: reference run: %w", err)
	}
	exps, err := store.Experiments(campaign)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		Campaign:     campaign,
		Counts:       map[string]int{},
		PerMechanism: map[string]int{},
	}
	var rows []dbase.AnalysisRow
	for _, e := range exps {
		if e.ExperimentName == ref.ExperimentName || e.ParentExperiment != "" {
			continue // skip the reference run and detail reruns
		}
		if e.TerminationReason == core.TermFailed {
			// A "failed" row records a tool-level loss (the target glitched
			// through the whole retry budget), not a target outcome: it
			// carries no state vector worth classifying.
			rep.Failed++
			continue
		}
		outcome, mech, err := classifyOne(refChains, refOutputs, ref.TerminationReason, e)
		if err != nil {
			return Report{}, fmt.Errorf("analysis: %s: %w", e.ExperimentName, err)
		}
		rows = append(rows, dbase.AnalysisRow{
			ExperimentName: e.ExperimentName,
			CampaignName:   campaign,
			Outcome:        outcome,
			Mechanism:      mech,
		})
		rep.Counts[outcome]++
		if outcome == OutcomeDetected {
			rep.PerMechanism[mech]++
		}
		rep.Total++
	}
	if err := store.PutAnalysis(rows); err != nil {
		return Report{}, err
	}
	rep.Effective = rep.Counts[OutcomeDetected] + rep.Counts[OutcomeEscaped]
	rep.NonEffective = rep.Counts[OutcomeLatent] + rep.Counts[OutcomeOverwritten]
	if rep.Effective > 0 {
		rep.Coverage = float64(rep.Counts[OutcomeDetected]) / float64(rep.Effective)
		rep.CI = Wilson(rep.Counts[OutcomeDetected], rep.Effective, 1.96)
	}
	return rep, nil
}

// classifyOne applies the §3.4 taxonomy to one experiment. The logged state
// is compared with the reference in its wire encoding: the encoding is
// canonical, so equal output sections mean equal results and equal chain
// sections as well mean equal state (core.StateSections).
func classifyOne(refChains, refOutputs []byte, refReason string, e dbase.ExperimentRow) (outcome, mechanism string, err error) {
	if e.TerminationReason == target.TerminDetected.String() {
		return OutcomeDetected, e.Mechanism, nil
	}
	// A timeout that the reference run did not exhibit is a timeliness
	// violation that escaped every detection mechanism. A watchdog hang is
	// the same violation in its most extreme form: the system wedged without
	// any mechanism firing.
	if e.TerminationReason == core.TermHang ||
		(e.TerminationReason == target.TerminTimeout.String() && refReason != e.TerminationReason) {
		return OutcomeEscaped, "", nil
	}
	chains, outputs, err := core.StateSections(e.StateVector)
	if err != nil {
		return "", "", err
	}
	switch {
	case !bytes.Equal(outputs, refOutputs):
		return OutcomeEscaped, "", nil
	case !bytes.Equal(chains, refChains):
		return OutcomeLatent, "", nil
	default:
		return OutcomeOverwritten, "", nil
	}
}

// Wilson computes the Wilson score interval for k successes out of n trials
// at normal quantile z (1.96 for 95%).
func Wilson(k, n int, z float64) Interval {
	if n == 0 {
		return Interval{}
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	centre := p + z*z/(2*nn)
	half := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn))
	lo := (centre - half) / denom
	hi := (centre + half) / denom
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return Interval{Lo: lo, Hi: hi}
}

// String renders the report in the layout of the paper's result list (§3.4).
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Campaign %s: %d experiments\n", r.Campaign, r.Total)
	fmt.Fprintf(&sb, "  Effective errors:      %4d (%s)\n", r.Effective, pct(r.Effective, r.Total))
	fmt.Fprintf(&sb, "    Detected errors:     %4d (%s)\n", r.Counts[OutcomeDetected], pct(r.Counts[OutcomeDetected], r.Total))
	for _, m := range sortedKeys(r.PerMechanism) {
		fmt.Fprintf(&sb, "      %-20s %4d\n", m+":", r.PerMechanism[m])
	}
	fmt.Fprintf(&sb, "    Escaped errors:      %4d (%s)\n", r.Counts[OutcomeEscaped], pct(r.Counts[OutcomeEscaped], r.Total))
	fmt.Fprintf(&sb, "  Non-effective errors:  %4d (%s)\n", r.NonEffective, pct(r.NonEffective, r.Total))
	fmt.Fprintf(&sb, "    Latent errors:       %4d (%s)\n", r.Counts[OutcomeLatent], pct(r.Counts[OutcomeLatent], r.Total))
	fmt.Fprintf(&sb, "    Overwritten errors:  %4d (%s)\n", r.Counts[OutcomeOverwritten], pct(r.Counts[OutcomeOverwritten], r.Total))
	if r.Effective > 0 {
		fmt.Fprintf(&sb, "  Error detection coverage: %.1f%% (95%% CI %.1f%%–%.1f%%)\n",
			100*r.Coverage, 100*r.CI.Lo, 100*r.CI.Hi)
	}
	if r.Failed > 0 {
		fmt.Fprintf(&sb, "  Failed experiments (excluded): %d\n", r.Failed)
	}
	return sb.String()
}

func pct(k, n int) string {
	if n == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(k)/float64(n))
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
