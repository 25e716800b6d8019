// Package metrics declares the run counters every layer reports: the
// engine increments them, the public Report and the sweep measurement
// vector embed them by value, and the sweep CSV columns and aggregates are
// derived from their tags. A counter added here — a field with a doc
// comment, a json tag, a csv tag, and an increment site in the engine —
// reaches every report, sink, manifest and aggregate without another edit.
package metrics

// Counters holds the retry, cost, budget and shard counters of one run.
// The field order is the sweep CSV column order; the json tags are the
// JSONL and manifest keys (embedded structs flatten in place).
type Counters struct {
	// Retries counts re-admissions of jobs a fault disturbed.
	Retries int `json:"retries" csv:"retries"`
	// Fallbacks counts jobs that abandoned the external cloud for the
	// internal one after a fault.
	Fallbacks int `json:"fallbacks" csv:"fallbacks"`

	// CostRental is the billing-rounded rental bill of every external
	// machine held (zero when the pricing model is off).
	CostRental float64 `json:"costRental,omitempty" csv:"cost_rental"`
	// CostCommitted is the monotone prepaid spend the budget gate metered
	// over admitted bursts; a positive CostBudget bounds it.
	CostCommitted float64 `json:"costCommitted,omitempty" csv:"cost_committed"`
	// CostBudget echoes the configured spend cap (0 = unlimited).
	CostBudget float64 `json:"costBudget,omitempty" csv:"cost_budget"`
	// BudgetDenials counts jobs the budget gate kept on the internal cloud
	// against the scheduler's preference — nonzero only when a positive
	// budget actually bound an admission decision.
	BudgetDenials int `json:"budgetDenials,omitempty" csv:"budget_denials"`

	// Conflicts counts sharded placement decisions that lost the commit
	// phase: machine slots claimed twice or budget over-commits (zero on
	// the monolithic path).
	Conflicts int `json:"conflicts,omitempty" csv:"conflicts"`
	// Replacements counts the re-placement attempts those losses forced.
	Replacements int `json:"replacements,omitempty" csv:"replacements"`
	// CommitRetries counts the extra placement rounds batches needed
	// beyond their first.
	CommitRetries int `json:"commitRetries,omitempty" csv:"commit_retries"`
}
