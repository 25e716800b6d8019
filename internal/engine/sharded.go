package engine

import (
	"cloudburst/internal/job"
	"cloudburst/internal/sched"
	"cloudburst/internal/shard"
	"cloudburst/internal/trace"
	"cloudburst/internal/workload"
)

// onBatchSharded drives one batch through the shared-state placement path:
// snapshot → speculative scheduling in shard order → deterministic commit →
// re-place losers against a refreshed snapshot. After MaxRetries
// conflicted rounds the batch finishes with one serial round (conflict
// detection off), so every job is always placed.
func (e *Engine) onBatchSharded(b workload.Batch) {
	pending := b.Jobs
	var firstState *sched.State
	committed, bursted := 0, 0
	for attempt := 1; len(pending) > 0; attempt++ {
		e.epoch++
		// Settle the estimator's deferred fits at the start of every
		// round. When a deferred fit runs decides which fits exist, and
		// the result's R² reads the global model's settled fit, so this
		// point is part of the pinned sharded behaviour.
		e.estimator.Materialize()
		st := e.state()
		if firstState == nil {
			firstState = st
		}
		nShards := e.coord.Count()
		detect := true
		if attempt > e.coord.MaxRetries()+1 {
			nShards, detect = 1, false
		}
		e.freeECBuf = e.ec.IdleActiveIDs(e.freeECBuf[:0])
		snap := &shard.Snapshot{
			State:  st,
			FreeEC: e.freeECBuf,
			Epoch:  e.epoch,
		}
		if e.meter != nil && e.meter.Budget() > 0 {
			snap.BudgetArmed = true
			snap.Charge = e.meter.Charge
			snap.Remaining = e.meter.Remaining()
		}

		// Re-entrants from a conflicted round are announced before their
		// new placement so the stream reads replay-forward.
		if attempt > 1 {
			parts := e.coord.Partitioner()
			for _, j := range pending {
				e.c.Replacements++
				if e.wants(trace.PlacementRetried) {
					s := 0
					if nShards > 1 {
						s = parts.Shard(j.ID) % nShards
					}
					e.tracer.Emit(trace.Event{
						Type: trace.PlacementRetried, T: e.eng.Now(),
						JobID: j.ID, Seq: -1, Batch: b.Index,
						Shard: s + 1, Epoch: e.epoch, Attempt: attempt - 1,
					})
				}
			}
		}

		before := e.alloc.Peek()
		outcomes := e.coord.Round(pending, snap, e.alloc, nShards, detect)
		e.chunks += e.alloc.Peek() - before
		e.total += len(outcomes) - len(pending)

		var losers []*job.Job
		for _, o := range outcomes {
			if o.Won {
				e.processDecision(o.D, b.Index, o.Shard+1, e.epoch, o.Machine, attempt)
				committed++
				if o.D.Place == sched.PlaceEC {
					bursted++
				}
				continue
			}
			e.c.Conflicts++
			if e.wants(trace.PlacementConflict) {
				e.tracer.Emit(trace.Event{
					Type: trace.PlacementConflict, T: e.eng.Now(),
					JobID: o.D.Job.ID, Seq: -1, Batch: b.Index,
					Where: o.D.Place.String(), Site: o.D.Site,
					Machine: o.Machine, Gated: o.Budget,
					EstProc: o.D.EstProcStd,
					Shard:   o.Shard + 1, Epoch: e.epoch, Attempt: attempt,
				})
			}
			losers = append(losers, o.D.Job)
		}
		if attempt > 1 {
			e.c.CommitRetries++
		}

		// SIBS shards publish refreshed size-interval bounds per round, the
		// sharded analogue of the per-batch monolithic publish.
		if sBound, mBound, ok := e.coord.Bounds(); ok {
			e.upQ.SetBounds(sBound, mBound)
		}

		pending = losers
	}

	if e.cfg.OnBatch != nil && firstState != nil {
		e.cfg.OnBatch(BatchTrace{
			Now:             firstState.Now,
			Batch:           b.Index,
			Decisions:       committed,
			Bursted:         bursted,
			ICBacklogStd:    firstState.ICBacklogStd,
			UploadBacklog:   firstState.UploadBacklog,
			ECPendingStd:    firstState.ECPendingStd,
			DownloadPending: firstState.DownloadPending,
			PredUpBW:        firstState.PredictUploadBW(firstState.Now),
			PredDownBW:      firstState.PredictDownloadBW(firstState.Now),
			Threads:         e.upTuner.Threads(),
		})
	}
}
