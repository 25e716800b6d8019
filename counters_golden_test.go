package cloudburst

// Golden-bytes compatibility test for the run counters: the retry, cost,
// budget and shard counters travel from the engine through Report into the
// sweep measurement vector, and from there into every persisted artifact.
// This test pins the exact bytes of each artifact — the JSONL sink, the CSV
// sink, the resume manifest, the AggregateSweep output and Report.String()
// — over a grid that makes every counter nonzero somewhere, so any change
// to how the counters are declared or carried must leave the files that
// users and resumed sweeps read byte-identical.
//
// Regenerate (only when an intentional output change is reviewed and
// accepted) with:
//
//	go test -run TestRunCountersGoldenBytes -update-counters .

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateCounters = flag.Bool("update-counters", false, "rewrite testdata/counters/ from the current code")

// countersSpec is a tiny-cluster grid: two schedulers, a clean and a
// faulted regime, a free and a priced regime whose budget binds, all on
// four shards so the commit phase has to arbitrate.
func countersSpec() SweepSpec {
	return SweepSpec{
		Schedulers: []string{"Greedy", "Op"},
		Buckets:    []string{"uniform"},
		Faults: []SweepFaultSet{
			{Name: "none"},
			{Name: "mixed", ECRevocationMTBF: 400, ECRevocationWarning: 30,
				ICCrashMTBF: 600, ICCrashMTTR: 300, TransferStallMTBF: 900, TransferStallTimeout: 90},
		},
		Costs: []SweepCostSet{
			{Name: "free"},
			{Name: "tight", OnDemandRate: 0.10, Budget: 0.25},
		},
		Shards:           []int{4},
		Batches:          4,
		MeanJobsPerBatch: 24,
		ICMachines:       2,
		ECMachines:       2,
	}
}

func TestRunCountersGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "sweep.manifest")
	var jsonl, csv bytes.Buffer
	results, err := SweepContext(context.Background(), countersSpec(), SweepConfig{
		Workers: 1, JSONL: &jsonl, CSV: &csv, ManifestPath: manifest,
	})
	if err != nil {
		t.Fatal(err)
	}
	manifestBytes, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := json.MarshalIndent(AggregateSweep(results, func(c SweepCell) string {
		return c.Scheduler + "/" + c.Fault + "/" + c.Cost
	}), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	agg = append(agg, '\n')
	// The report run replays the faulted, priced, sharded Greedy cell, so
	// every optional line of Report.String() renders with nonzero counts.
	o, err := CellOptions(countersSpec(), results[3].Cell)
	if err != nil {
		t.Fatal(err)
	}
	if o.Faults == nil || o.Cost == nil || o.Shards == nil {
		t.Fatalf("report cell %s is not faulted, priced and sharded", results[3].Cell.Fingerprint)
	}
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}

	// Every counter column must be exercised: an always-zero column would
	// hide an omitempty key that a refactor dropped or renamed.
	for _, name := range []string{
		"retries", "fallbacks", "cost_rental", "cost_committed", "cost_budget",
		"budget_denials", "conflicts", "replacements", "commit_retries",
	} {
		nonzero := false
		for _, res := range results {
			if res.Metrics.Value(name) != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			t.Errorf("counter %q is zero in every cell of the golden grid", name)
		}
	}

	// A resumed sweep must reproduce the fresh in-memory vectors exactly:
	// nothing a fresh cell carries may be lost in the manifest round trip.
	resumed, err := SweepContext(context.Background(), countersSpec(), SweepConfig{
		Workers: 1, ManifestPath: manifest,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if !reflect.DeepEqual(resumed[i].Metrics, results[i].Metrics) {
			t.Errorf("cell %d: resumed metrics %+v differ from fresh %+v", i, resumed[i].Metrics, results[i].Metrics)
		}
	}

	files := []struct {
		name string
		got  []byte
	}{
		{"sweep.jsonl", jsonl.Bytes()},
		{"sweep.csv", csv.Bytes()},
		{"sweep.manifest", manifestBytes},
		{"aggregate.json", agg},
		{"report.txt", []byte(r.String())},
	}
	for _, f := range files {
		path := filepath.Join("testdata", "counters", f.name)
		if *updateCounters {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update-counters)", err)
		}
		if !bytes.Equal(f.got, want) {
			t.Errorf("%s differs from the golden bytes:\ngot:\n%s\nwant:\n%s", f.name, f.got, want)
		}
	}
}
