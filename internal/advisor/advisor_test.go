package advisor

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cloudburst/internal/metrics"
	"cloudburst/internal/sweep"
)

func entry(sched, rest string, makespan float64, m sweep.Metrics) Entry {
	m.Makespan = makespan
	return Entry{
		FP:       "v1|sched=" + sched + "|" + rest,
		Sched:    sched,
		Scenario: "v1|" + rest,
		Metrics:  m,
	}
}

func TestSplitFP(t *testing.T) {
	sched, scenario, ok := splitFP("v1|sched=Op|bucket=small|resched=false")
	if !ok || sched != "Op" {
		t.Fatalf("sched = %q ok=%v", sched, ok)
	}
	// The scenario keeps every other token — including resched, whose name
	// contains "sched" as a substring and must not be mistaken for the token.
	if scenario != "v1|bucket=small|resched=false" {
		t.Fatalf("scenario = %q", scenario)
	}
	if _, _, ok := splitFP("v1|bucket=small|resched=false"); ok {
		t.Fatal("fingerprint without a sched token split anyway")
	}
}

func TestReadManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.jsonl")
	data := `{"fp":"v1|sched=Op|bucket=small","metrics":{"makespan":100}}
not json at all
{"fp":"","metrics":{}}
{"fp":"v1|bucket=nosched","metrics":{}}
{"fp":"v1|sched=ICOnly|bucket=small","metrics":{"makespan":200}}
`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	// The garbage line, the blank fingerprint, and the sched-less
	// fingerprint are all skipped, torn-tail style.
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2: %+v", len(entries), entries)
	}
	if entries[0].Sched != "Op" || entries[0].Scenario != "v1|bucket=small" {
		t.Fatalf("entry 0 = %+v", entries[0])
	}
	if entries[1].Metrics.Makespan != 200 {
		t.Fatalf("entry 1 metrics lost: %+v", entries[1])
	}
}

func TestReadManifestErrors(t *testing.T) {
	if _, err := ReadManifest(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadManifest(empty)
	if !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestAdviseICOnlyBaseline(t *testing.T) {
	priced := sweep.Metrics{Counters: metrics.Counters{CostRental: 0.20, CostCommitted: 0.10}}
	advice := Advise([]Entry{
		entry("ICOnly", "bucket=small", 600, sweep.Metrics{}),
		entry("Op", "bucket=small", 420, priced),
		entry("Greedy", "bucket=small", 500, priced),
	})
	if len(advice) != 1 {
		t.Fatalf("advice = %+v", advice)
	}
	a := advice[0]
	if !a.BaselineIsICOnly || a.Baseline.Sched != "ICOnly" {
		t.Fatalf("baseline = %+v", a.Baseline)
	}
	if a.Best.Sched != "Op" || a.SecondsSaved != 180 || !a.Burst {
		t.Fatalf("advice = %+v", a)
	}
	// $0.20 rental over 180 s saved = $4/hour saved.
	if a.CostPerHourSaved != 0.20/(180.0/3600) {
		t.Fatalf("CostPerHourSaved = %v", a.CostPerHourSaved)
	}
}

func TestAdviseSlowestBursterStandIn(t *testing.T) {
	advice := Advise([]Entry{
		entry("Op", "bucket=small", 420, sweep.Metrics{}),
		entry("Greedy", "bucket=small", 500, sweep.Metrics{}),
	})
	if len(advice) != 1 {
		t.Fatalf("advice = %+v", advice)
	}
	a := advice[0]
	if a.BaselineIsICOnly || a.Baseline.Sched != "Greedy" || a.Best.Sched != "Op" {
		t.Fatalf("advice = %+v", a)
	}
	if a.SecondsSaved != 80 || !a.Burst {
		t.Fatalf("advice = %+v", a)
	}
	// The stand-in baseline only measures the spread between bursting
	// strategies — the advice must be flagged as an estimate.
	if !a.Estimated {
		t.Fatalf("stand-in baseline not flagged as estimated: %+v", a)
	}
}

func TestAdviseMeasuredBaselineNotEstimated(t *testing.T) {
	advice := Advise([]Entry{
		entry("ICOnly", "bucket=small", 600, sweep.Metrics{}),
		entry("Op", "bucket=small", 420, sweep.Metrics{}),
	})
	if len(advice) != 1 {
		t.Fatalf("advice = %+v", advice)
	}
	if a := advice[0]; !a.BaselineIsICOnly || a.Estimated {
		t.Fatalf("measured ICOnly baseline flagged as estimated: %+v", a)
	}
}

func TestAdviseNoGainStaysInternal(t *testing.T) {
	advice := Advise([]Entry{
		entry("ICOnly", "bucket=small", 400, sweep.Metrics{}),
		entry("Op", "bucket=small", 400, sweep.Metrics{Counters: metrics.Counters{CostRental: 0.10}}),
	})
	if len(advice) != 1 || advice[0].Burst {
		t.Fatalf("advice = %+v", advice)
	}
	if advice[0].SecondsSaved != 0 || advice[0].CostPerHourSaved != 0 {
		t.Fatalf("no-gain scenario priced anyway: %+v", advice[0])
	}
}

func TestAdviseSkipsIncomparableScenarios(t *testing.T) {
	advice := Advise([]Entry{
		entry("Op", "bucket=solo", 400, sweep.Metrics{}),          // one scheduler only
		entry("ICOnly", "bucket=iconly1", 500, sweep.Metrics{}),   // ICOnly-only pair:
		entry("ICOnly", "bucket=iconly1|x=1", 0, sweep.Metrics{}), // distinct scenarios
	})
	if len(advice) != 0 {
		t.Fatalf("incomparable scenarios advised: %+v", advice)
	}
}

func TestAdviseDuplicateFingerprintKeepsLast(t *testing.T) {
	first := entry("Op", "bucket=small", 999, sweep.Metrics{})
	second := entry("Op", "bucket=small", 420, sweep.Metrics{})
	advice := Advise([]Entry{
		first,
		entry("ICOnly", "bucket=small", 600, sweep.Metrics{}),
		second, // resume semantics: last record of a fingerprint wins
	})
	if len(advice) != 1 || advice[0].Best.Metrics.Makespan != 420 {
		t.Fatalf("advice = %+v", advice)
	}
}

func TestAdviseSortedScenarioOrder(t *testing.T) {
	advice := Advise([]Entry{
		entry("ICOnly", "bucket=zz", 600, sweep.Metrics{}),
		entry("Op", "bucket=zz", 400, sweep.Metrics{}),
		entry("ICOnly", "bucket=aa", 600, sweep.Metrics{}),
		entry("Op", "bucket=aa", 400, sweep.Metrics{}),
	})
	if len(advice) != 2 {
		t.Fatalf("advice = %+v", advice)
	}
	if advice[0].Scenario != "v1|bucket=aa" || advice[1].Scenario != "v1|bucket=zz" {
		t.Fatalf("order: %q, %q", advice[0].Scenario, advice[1].Scenario)
	}
}

func TestAdviseOverBudgetNotRecommended(t *testing.T) {
	over := sweep.Metrics{Counters: metrics.Counters{CostBudget: 0.10, CostCommitted: 0.15, CostRental: 0.20}}
	advice := Advise([]Entry{
		entry("ICOnly", "bucket=small", 600, sweep.Metrics{}),
		entry("Op", "bucket=small", 420, over),
	})
	if len(advice) != 1 {
		t.Fatalf("advice = %+v", advice)
	}
	if a := advice[0]; a.Burst || a.SecondsSaved != 180 {
		t.Fatalf("over-budget run recommended: %+v", a)
	}
}
