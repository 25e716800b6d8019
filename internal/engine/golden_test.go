package engine_test

// Golden determinism tests: the optimized engine must reproduce the exact
// behaviour of the pre-optimization (seed) implementation. The committed
// testdata/golden.json was generated against the seed engine; any hot-path
// change (event pooling, dense job state, estimate caching, incremental
// slack horizons) must keep every scheduler's metrics within 1e-12 relative
// error and leave the discrete trace event sequence bit-identical.
//
// Regenerate (only when an intentional semantic change is reviewed and
// accepted) with:
//
//	go test ./internal/engine -run TestGoldenDeterminism -update-golden

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cloudburst/internal/cluster"
	"cloudburst/internal/cost"
	"cloudburst/internal/engine"
	"cloudburst/internal/netsim"
	"cloudburst/internal/sched"
	"cloudburst/internal/shard"
	"cloudburst/internal/trace"
	"cloudburst/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current engine")

// goldenRun is the recorded fingerprint of one (config, scheduler) run.
type goldenRun struct {
	Name      string `json:"name"`
	Scheduler string `json:"scheduler"`

	Makespan   float64 `json:"makespan"`
	Speedup    float64 `json:"speedup"`
	BurstRatio float64 `json:"burstRatio"`
	ICUtil     float64 `json:"icUtil"`
	ECUtil     float64 `json:"ecUtil"`

	Jobs            int   `json:"jobs"`
	ChunksCreated   int   `json:"chunksCreated"`
	UploadedBytes   int64 `json:"uploadedBytes"`
	DownloadedBytes int64 `json:"downloadedBytes"`

	// CompletionSum is the sum of all per-record completion timestamps: a
	// single scalar that moves if any job's delivery time moves.
	CompletionSum float64 `json:"completionSum"`

	// TraceEvents counts emitted events; TraceHash fingerprints the discrete
	// event sequence (types, jobs, seqs, placements, links) excluding float
	// timestamps, which the metric tolerances cover.
	TraceEvents int    `json:"traceEvents"`
	TraceHash   string `json:"traceHash"`

	// Sharded runs only (omitted elsewhere, so monolithic entries keep
	// their bytes): the commit-phase counters, and ShardHash, which
	// fingerprints the shard, snapshot epoch, retry round and claimed
	// machine of every event — the conflict history audit replays.
	Conflicts     int    `json:"conflicts,omitempty"`
	Replacements  int    `json:"replacements,omitempty"`
	CommitRetries int    `json:"commitRetries,omitempty"`
	ShardHash     string `json:"shardHash,omitempty"`
}

// goldenCase defines one run configuration to pin.
type goldenCase struct {
	name  string
	cfg   engine.Config
	sched func() sched.Scheduler
}

func goldenCases() []goldenCase {
	base := engine.Config{NetSeed: 43}
	resched := engine.Config{NetSeed: 43, Rescheduling: true}
	multi := engine.Config{
		NetSeed:      43,
		Rescheduling: true,
		RemoteSites:  []engine.RemoteSiteConfig{{Machines: 2}},
	}
	scaled := engine.Config{
		NetSeed:    43,
		ECMachines: 1,
		Autoscale:  &engine.AutoscaleConfig{Max: 6},
	}
	outage := engine.Config{
		NetSeed: 43,
		Outages: &netsim.OutageModel{MeanTimeBetween: 3000, MeanDuration: 300, ThrottleFactor: 0.2},
	}
	// Fault-injection cases: each arms exactly one fault source with its own
	// seeded RNG, pinning the recovery state machine (retry, backoff,
	// slack-gated re-burst, IC fallback) alongside the fault-free paths.
	ecRevoke := engine.Config{
		NetSeed: 43,
		Faults: &engine.FaultConfig{
			ECRevocation: cluster.FaultModel{MTBF: 400, WarnLead: 30},
		},
	}
	icCrash := engine.Config{
		NetSeed: 43,
		Faults: &engine.FaultConfig{
			ICCrash: cluster.FaultModel{MTBF: 600, MTTR: 300},
		},
	}
	stall := engine.Config{
		NetSeed: 43,
		Faults: &engine.FaultConfig{
			TransferStalls: netsim.StallModel{MeanTimeBetween: 1200, Timeout: 90},
		},
	}
	// Sharded cases pin the commit phase: the hash and disjoint slot
	// partitions, every scheduler family, a budgeted and a faulted run, and
	// eight single-retry shards, which exhaust MaxRetries and finish some
	// batches with the serial fallback round.
	sharded := func(c engine.Config, n int, disjoint bool, retries int) engine.Config {
		c.Shards = &shard.Config{Count: n, Disjoint: disjoint, Seed: 7, MaxRetries: retries}
		return c
	}
	budgeted := base
	budgeted.Cost = &cost.Config{OnDemandRate: 0.10, Budget: 0.25}
	return []goldenCase{
		{"greedy", base, func() sched.Scheduler { return sched.Greedy{} }},
		{"op", base, func() sched.Scheduler { return sched.OrderPreserving{} }},
		{"sibs", base, func() sched.Scheduler { return &sched.SIBS{} }},
		{"op-resched", resched, func() sched.Scheduler { return sched.OrderPreserving{} }},
		{"sibs-resched", resched, func() sched.Scheduler { return &sched.SIBS{} }},
		{"op-multisite", multi, func() sched.Scheduler { return sched.OrderPreserving{} }},
		{"op-autoscale", scaled, func() sched.Scheduler { return sched.OrderPreserving{} }},
		{"greedy-outage", outage, func() sched.Scheduler { return sched.Greedy{} }},
		{"op-ec-revoke", ecRevoke, func() sched.Scheduler { return sched.OrderPreserving{} }},
		{"op-ic-crash", icCrash, func() sched.Scheduler { return sched.OrderPreserving{} }},
		{"sibs-stall", stall, func() sched.Scheduler { return &sched.SIBS{} }},
		{"greedy-shard4", sharded(base, 4, false, 2), func() sched.Scheduler { return sched.Greedy{} }},
		{"op-shard4-disjoint", sharded(base, 4, true, 2), func() sched.Scheduler { return sched.OrderPreserving{} }},
		{"sibs-shard4", sharded(base, 4, false, 2), func() sched.Scheduler { return &sched.SIBS{} }},
		{"greedy-shard8-fallback", sharded(base, 8, false, 1), func() sched.Scheduler { return sched.Greedy{} }},
		{"greedy-shard4-budget", sharded(budgeted, 4, false, 2), func() sched.Scheduler { return sched.Greedy{} }},
		{"op-shard4-ic-crash", sharded(icCrash, 4, false, 2), func() sched.Scheduler { return sched.OrderPreserving{} }},
	}
}

// runGolden executes one case and fingerprints it.
func runGolden(t *testing.T, gc goldenCase) goldenRun {
	t.Helper()
	rec := trace.NewRecorder()
	cfg := gc.cfg
	cfg.Tracer = rec
	cfg.NewScheduler = gc.sched
	g, err := workload.NewGenerator(workload.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s := gc.sched()
	res, err := engine.Run(cfg, s, g.Generate())
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}

	var compSum float64
	for _, r := range res.Records.Records() {
		compSum += r.CompletedAt
	}

	h := fnv.New64a()
	for _, ev := range rec.Events() {
		fmt.Fprintf(h, "%d|%d|%d|%d|%s|%d|%s|%s|%s|%d|%d\n",
			ev.Type, ev.JobID, ev.Seq, ev.Batch, ev.Where, ev.Site,
			ev.Link, ev.From, ev.To, ev.Bytes, ev.OutputBytes)
	}

	var shardHash string
	if cfg.Shards != nil {
		sh := fnv.New64a()
		for _, ev := range rec.Events() {
			fmt.Fprintf(sh, "%d|%d|%d|%d|%d|%d|%t\n",
				ev.Type, ev.JobID, ev.Shard, ev.Epoch, ev.Attempt, ev.Machine, ev.Gated)
		}
		shardHash = fmt.Sprintf("%016x", sh.Sum64())
	}

	return goldenRun{
		Name:            gc.name,
		Scheduler:       s.Name(),
		Makespan:        res.Makespan,
		Speedup:         res.Speedup,
		BurstRatio:      res.BurstRatio,
		ICUtil:          res.ICUtil,
		ECUtil:          res.ECUtil,
		Jobs:            res.Jobs,
		ChunksCreated:   res.ChunksCreated,
		UploadedBytes:   res.UploadedBytes,
		DownloadedBytes: res.DownloadedBytes,
		CompletionSum:   compSum,
		TraceEvents:     rec.Len(),
		TraceHash:       fmt.Sprintf("%016x", h.Sum64()),
		Conflicts:       res.Conflicts,
		Replacements:    res.Replacements,
		CommitRetries:   res.CommitRetries,
		ShardHash:       shardHash,
	}
}

const goldenPath = "testdata/golden.json"

// relTol is the acceptance bound: metrics must match the seed engine to
// 1e-12 relative error (float-sum reassociation noise only).
const relTol = 1e-12

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return d
	}
	return d / den
}

// TestReferenceModeBitIdentical pins the reference-mode guarantee at the
// engine level: Config.Reference swaps in the naive event core and disables
// the estimate cache, and the resulting run must be indistinguishable from
// the optimized engine — identical metrics, byte counters, completion sums,
// and discrete trace sequence, not merely within tolerance.
func TestReferenceModeBitIdentical(t *testing.T) {
	for _, gc := range goldenCases() {
		fast := runGolden(t, gc)
		refCase := gc
		refCase.cfg.Reference = true
		ref := runGolden(t, refCase)
		if fast != ref {
			t.Errorf("%s: reference run diverged from optimized:\n  fast %+v\n  ref  %+v",
				gc.name, fast, ref)
		}
	}
}

func TestGoldenDeterminism(t *testing.T) {
	cases := goldenCases()
	got := make([]goldenRun, 0, len(cases))
	for _, gc := range cases {
		first := runGolden(t, gc)
		// In-process repeatability: the same case must reproduce itself
		// exactly (catches map-iteration or pooling nondeterminism).
		second := runGolden(t, gc)
		if first != second {
			t.Errorf("%s: run is not self-deterministic:\n  %+v\n  %+v", gc.name, first, second)
		}
		got = append(got, first)
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, test produced %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.Scheduler != w.Scheduler {
			t.Errorf("case %d: identity mismatch: got %s/%s want %s/%s",
				i, g.Name, g.Scheduler, w.Name, w.Scheduler)
			continue
		}
		checkF := func(field string, gv, wv float64) {
			if d := relDiff(gv, wv); d > relTol {
				t.Errorf("%s: %s = %.17g, golden %.17g (rel diff %.3g > %.0g)",
					w.Name, field, gv, wv, d, relTol)
			}
		}
		checkF("makespan", g.Makespan, w.Makespan)
		checkF("speedup", g.Speedup, w.Speedup)
		checkF("burstRatio", g.BurstRatio, w.BurstRatio)
		checkF("icUtil", g.ICUtil, w.ICUtil)
		checkF("ecUtil", g.ECUtil, w.ECUtil)
		checkF("completionSum", g.CompletionSum, w.CompletionSum)
		if g.Jobs != w.Jobs || g.ChunksCreated != w.ChunksCreated {
			t.Errorf("%s: jobs/chunks = %d/%d, golden %d/%d",
				w.Name, g.Jobs, g.ChunksCreated, w.Jobs, w.ChunksCreated)
		}
		if g.UploadedBytes != w.UploadedBytes || g.DownloadedBytes != w.DownloadedBytes {
			t.Errorf("%s: transferred bytes = %d/%d, golden %d/%d",
				w.Name, g.UploadedBytes, g.DownloadedBytes, w.UploadedBytes, w.DownloadedBytes)
		}
		if g.Conflicts != w.Conflicts || g.Replacements != w.Replacements || g.CommitRetries != w.CommitRetries {
			t.Errorf("%s: conflicts/replacements/retries = %d/%d/%d, golden %d/%d/%d",
				w.Name, g.Conflicts, g.Replacements, g.CommitRetries, w.Conflicts, w.Replacements, w.CommitRetries)
		}
		if g.ShardHash != w.ShardHash {
			t.Errorf("%s: shard history changed: hash %s, golden %s", w.Name, g.ShardHash, w.ShardHash)
		}
		if g.TraceEvents != w.TraceEvents || g.TraceHash != w.TraceHash {
			t.Errorf("%s: trace sequence changed: %d events hash %s, golden %d events hash %s",
				w.Name, g.TraceEvents, g.TraceHash, w.TraceEvents, w.TraceHash)
		}
	}
}

// Serve goldens pin long streaming runs, whose per-class QRSM windows grow
// to thousands of samples — far past the few hundred the Run goldens fit.
// Every field must match exactly: the trace fingerprint covers each
// placement decision, and QRSMR2Bits is the raw IEEE-754 pattern of the
// global model's settled R², so a fit that moves by one ulp fails.
//
// Regenerate together with the Run goldens (-update-golden), and only for
// a reviewed semantic change.
const serveGoldenPath = "testdata/serve_golden.json"

type goldenServe struct {
	Name        string  `json:"name"`
	Fingerprint string  `json:"fingerprint"`
	TraceEvents uint64  `json:"traceEvents"`
	Fed         int     `json:"fed"`
	Windows     int     `json:"windows"`
	VirtualTime float64 `json:"virtualTime"`
	QRSMR2Bits  string  `json:"qrsmR2Bits"`
}

type serveGoldenCase struct {
	name     string
	cfg      engine.Config
	sched    sched.Scheduler
	stream   workload.StreamConfig
	duration float64
}

func serveGoldenCases() []serveGoldenCase {
	steady := func(float64) float64 { return 15 }
	return []serveGoldenCase{
		{
			name:     "serve-steady-op-32x4",
			cfg:      engine.Config{NetSeed: 43, ICMachines: 32, ECMachines: 4},
			sched:    sched.OrderPreserving{},
			stream:   workload.StreamConfig{Bucket: workload.UniformMix, Rate: steady, Seed: 42},
			duration: 4 * 3600,
		},
		{
			name:     "serve-diurnal-sibs",
			cfg:      engine.Config{NetSeed: 43},
			sched:    &sched.SIBS{},
			stream:   workload.StreamConfig{Bucket: workload.UniformMix, Seed: 42},
			duration: 2 * 3600,
		},
		{
			name: "serve-flashcrowd-ec-revoke",
			cfg: engine.Config{
				NetSeed: 43,
				Faults: &engine.FaultConfig{
					ECRevocation: cluster.FaultModel{MTBF: 1200, MTTR: 600},
					Seed:         43,
				},
			},
			sched: sched.OrderPreserving{},
			stream: workload.StreamConfig{
				Bucket: workload.UniformMix,
				Burst:  &workload.BurstConfig{MeanGap: 1800, MeanDuration: 600},
				Seed:   42,
			},
			duration: 2 * 3600,
		},
	}
}

func runServeGolden(t *testing.T, c serveGoldenCase) goldenServe {
	t.Helper()
	src, err := workload.NewStream(c.stream)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Serve(context.Background(), c.cfg, c.sched, src,
		engine.StreamConfig{Window: 600, Duration: c.duration})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return goldenServe{
		Name:        c.name,
		Fingerprint: fmt.Sprintf("%016x", res.Fingerprint),
		TraceEvents: res.TraceEvents,
		Fed:         res.Fed,
		Windows:     res.Windows,
		VirtualTime: res.VirtualTime,
		QRSMR2Bits:  fmt.Sprintf("%016x", math.Float64bits(res.QRSMR2)),
	}
}

func TestServeGolden(t *testing.T) {
	var got []goldenServe
	for _, c := range serveGoldenCases() {
		got = append(got, runServeGolden(t, c))
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(serveGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", serveGoldenPath, len(got))
		return
	}
	data, err := os.ReadFile(serveGoldenPath)
	if err != nil {
		t.Fatalf("missing serve golden file (run with -update-golden to create): %v", err)
	}
	var want []goldenServe
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("serve golden has %d cases, test produced %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("serve run changed:\n  got    %+v\n  golden %+v", got[i], want[i])
		}
	}
}
