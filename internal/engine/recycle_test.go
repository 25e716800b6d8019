package engine_test

import (
	"testing"

	"cloudburst/internal/cluster"
	"cloudburst/internal/engine"
	"cloudburst/internal/netsim"
	"cloudburst/internal/sched"
)

// TestRecycledRNGsInterleavedCells runs two different cells alternately,
// three times each, on one goroutine with arena pooling on. Each run
// releases its generators into the free list the next run draws from, so
// the second cell seeds generators the first one dirtied and vice versa.
// Every run must equal the same cell run fresh (pooling off) and in
// Reference mode, to the last bit of every golden field.
func TestRecycledRNGsInterleavedCells(t *testing.T) {
	outage := &netsim.OutageModel{MeanTimeBetween: 3000, MeanDuration: 300, ThrottleFactor: 0.2}
	cells := []goldenCase{
		{"greedy-outage", engine.Config{NetSeed: 43, Outages: outage},
			func() sched.Scheduler { return sched.Greedy{} }},
		{"op-multisite-faults", engine.Config{
			NetSeed:     97,
			Outages:     outage,
			RemoteSites: []engine.RemoteSiteConfig{{Machines: 2}},
			Faults: &engine.FaultConfig{
				Seed:           5,
				ICCrash:        cluster.FaultModel{MTBF: 600, MTTR: 300},
				TransferStalls: netsim.StallModel{MeanTimeBetween: 1200, Timeout: 90},
			},
		}, func() sched.Scheduler { return sched.OrderPreserving{} }},
	}

	prev := engine.SetArenaPooling(false)
	defer engine.SetArenaPooling(prev)
	fresh := make([]goldenRun, len(cells))
	for i, c := range cells {
		fresh[i] = runGolden(t, c)
		ref := c
		ref.cfg.Reference = true
		if got := runGolden(t, ref); got != fresh[i] {
			t.Fatalf("%s: Reference mode diverged from the fresh run:\n  fresh %+v\n  ref   %+v", c.name, fresh[i], got)
		}
	}
	if fresh[0] == fresh[1] {
		t.Fatal("the two cells must differ for the interleaving to mean anything")
	}

	engine.SetArenaPooling(true)
	for round := 0; round < 3; round++ {
		for i, c := range cells {
			if got := runGolden(t, c); got != fresh[i] {
				t.Fatalf("%s, round %d: recycled run diverged from the fresh run:\n  fresh    %+v\n  recycled %+v",
					c.name, round, fresh[i], got)
			}
		}
	}
}
