package benchsnap

import (
	"fmt"
)

// CheckOptions tunes Compare's regression thresholds. Every field is taken
// as given — zero means no tolerance at all — so start from
// DefaultCheckOptions and override what you need.
type CheckOptions struct {
	// NsTolerance is the fractional ns/op growth that triggers a warning
	// (default 0.5 — wall clock on shared CI machines is noisy, so this only
	// ever warns).
	NsTolerance float64
	// AllocTolerance is the fractional allocs/op growth that triggers a hard
	// failure (default 0.1). Allocation counts are a property of the code,
	// not the machine, so they are held much tighter than wall clock.
	AllocTolerance float64
	// AllocSlack is an absolute allocs/op grace on top of AllocTolerance
	// (default 64), so near-zero baselines don't fail on a single extra
	// allocation of incidental variance.
	AllocSlack float64
}

// DefaultCheckOptions returns the thresholds documented on CheckOptions.
func DefaultCheckOptions() CheckOptions {
	return CheckOptions{NsTolerance: 0.5, AllocTolerance: 0.1, AllocSlack: 64}
}

// Compare holds cur against base. Failures are regressions CI must reject:
// schema/suite mismatches, benchmarks that disappeared, and allocs/op growth
// beyond tolerance. Warnings are signals worth reading but too noisy to
// gate on: ns/op drift and benchmarks the baseline doesn't know yet.
func Compare(cur, base *Snapshot, o CheckOptions) (warnings, failures []string) {
	if base.Schema != cur.Schema {
		failures = append(failures, fmt.Sprintf(
			"schema mismatch: baseline v%d vs current v%d — regenerate the baseline with this benchsnap",
			base.Schema, cur.Schema))
		return warnings, failures
	}
	if base.Suite != cur.Suite {
		failures = append(failures, fmt.Sprintf("suite mismatch: baseline %q vs current %q", base.Suite, cur.Suite))
		return warnings, failures
	}
	curByName := make(map[string]Result, len(cur.Results))
	for _, r := range cur.Results {
		curByName[r.Name] = r
	}
	for _, b := range base.Results {
		c, ok := curByName[b.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("benchmark %q in baseline but not measured", b.Name))
			continue
		}
		if limit := b.AllocsPerOp*(1+o.AllocTolerance) + o.AllocSlack; c.AllocsPerOp > limit {
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op %.0f exceeds baseline %.0f (+%.0f%% + %.0f slack = %.0f)",
				b.Name, c.AllocsPerOp, b.AllocsPerOp, o.AllocTolerance*100, o.AllocSlack, limit))
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+o.NsTolerance) {
			warnings = append(warnings, fmt.Sprintf(
				"%s: ns/op %.0f is %.1fx baseline %.0f (wall clock; not gating)",
				b.Name, c.NsPerOp, c.NsPerOp/b.NsPerOp, b.NsPerOp))
		}
	}
	baseNames := make(map[string]bool, len(base.Results))
	for _, b := range base.Results {
		baseNames[b.Name] = true
	}
	for _, c := range cur.Results {
		if !baseNames[c.Name] {
			warnings = append(warnings, fmt.Sprintf("benchmark %q has no baseline yet (refresh the snapshot)", c.Name))
		}
	}
	return warnings, failures
}
