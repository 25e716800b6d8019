package engine

import (
	"fmt"

	"cloudburst/internal/cluster"
	"cloudburst/internal/netsim"
	"cloudburst/internal/sched"
	"cloudburst/internal/sla"
	"cloudburst/internal/stats"
	"cloudburst/internal/trace"
)

// RemoteSiteConfig describes one additional external cloud beyond the
// primary EC — the multi-provider setting the paper's introduction sketches
// ("one could possibly choose from a pool of Cloud Providers at run-time").
// Each site has its own cluster and its own network path.
type RemoteSiteConfig struct {
	Machines        int     // default 2
	Speed           float64 // default 1.0
	UploadProfile   *netsim.Profile
	DownloadProfile *netsim.Profile
	JitterCV        float64 // default: the engine's JitterCV
	// OnDemandRate overrides the cost model's on-demand price for this
	// site's machines ($/machine-hour); 0 inherits Config.Cost. Remote
	// sites are never spot-priced (the revocation model is primary-only).
	OnDemandRate float64
}

// ecSite is the live state of one remote external cloud.
type ecSite struct {
	cfg      RemoteSiteConfig
	cluster  *cluster.Cluster
	uplink   *netsim.Link
	downlink *netsim.Link
	upQ      *netsim.Queue
	downQ    *netsim.Queue
	upPred   *netsim.Predictor
	downPred *netsim.Predictor
	upTuner  *netsim.Tuner
	dnTuner  *netsim.Tuner
	prober   *netsim.Prober
	bursts   int
}

// buildSites constructs the remote external clouds.
func (e *Engine) buildSites(netRNG *stats.RNG) {
	for i, rc := range e.cfg.RemoteSites {
		if rc.Machines == 0 {
			rc.Machines = 2
		}
		if rc.Speed == 0 {
			rc.Speed = 1
		}
		if rc.UploadProfile == nil {
			rc.UploadProfile = netsim.DiurnalProfile(600*1024, 0.3)
		}
		if rc.DownloadProfile == nil {
			rc.DownloadProfile = netsim.DiurnalProfile(900*1024, 0.3)
		}
		if rc.JitterCV == 0 {
			rc.JitterCV = e.cfg.JitterCV
		}
		s := &ecSite{cfg: rc}
		s.cluster = cluster.Uniform(e.eng, fmt.Sprintf("ec%d", i+1), rc.Machines, rc.Speed)
		e.attachClusterTrace(s.cluster)
		s.uplink = e.newLink(netsim.LinkConfig{
			Name:           fmt.Sprintf("uplink%d", i+1),
			Profile:        rc.UploadProfile,
			JitterCV:       rc.JitterCV,
			ResamplePeriod: e.cfg.ResamplePeriod,
			Threads:        e.cfg.ThreadModel,
			Outages:        e.cfg.Outages,
			OnOutage:       e.outageTrace(fmt.Sprintf("uplink%d", i+1)),
		}, netRNG.Fork())
		s.downlink = e.newLink(netsim.LinkConfig{
			Name:           fmt.Sprintf("downlink%d", i+1),
			Profile:        rc.DownloadProfile,
			JitterCV:       rc.JitterCV,
			ResamplePeriod: e.cfg.ResamplePeriod,
			Threads:        e.cfg.ThreadModel,
			Outages:        e.cfg.Outages,
			OnOutage:       e.outageTrace(fmt.Sprintf("downlink%d", i+1)),
		}, netRNG.Fork())
		s.upPred = netsim.NewPredictor(e.cfg.PredictorSlots, e.cfg.PredictorAlpha, e.cfg.PriorBW)
		s.downPred = netsim.NewPredictor(e.cfg.PredictorSlots, e.cfg.PredictorAlpha, e.cfg.PriorBW)
		s.upTuner = netsim.NewTuner(e.cfg.ThreadModel, 8)
		s.dnTuner = netsim.NewTuner(e.cfg.ThreadModel, 8)
		s.upQ = netsim.NewQueue(e.eng, fmt.Sprintf("upload%d", i+1), s.uplink, s.upTuner, 1)
		s.upQ.OnMeasure = func(at, bw float64) { s.upPred.Observe(at, bw) }
		s.downQ = netsim.NewQueue(e.eng, fmt.Sprintf("download%d", i+1), s.downlink, s.dnTuner, 1)
		s.downQ.OnMeasure = func(at, bw float64) { s.downPred.Observe(at, bw) }
		if e.cfg.ProbePeriod > 0 {
			s.prober = netsim.NewProber(e.eng, s.uplink, s.upPred, s.upTuner, netsim.ProberConfig{
				Period: e.cfg.ProbePeriod,
				Bytes:  e.cfg.ProbeBytes,
			})
			e.attachProbeTrace(s.prober, fmt.Sprintf("uplink%d", i+1))
		}
		e.sites = append(e.sites, s)
	}
}

// siteStates snapshots the remote sites for the scheduler.
func (e *Engine) siteStates() []sched.SiteState {
	if len(e.sites) == 0 {
		return nil
	}
	// Per-site pending compute and pending download bytes.
	pendStd := make([]float64, len(e.sites))
	pendDown := make([]float64, len(e.sites))
	for _, js := range e.states {
		if js == nil || js.place != sched.PlaceEC || js.done || js.site == 0 {
			continue
		}
		idx := js.site - 1
		if js.uploadItem != nil {
			pendStd[idx] += e.estimateJob(js.j)
		}
		if !js.downloading {
			pendDown[idx] += float64(js.j.OutputSize)
		}
	}
	out := make([]sched.SiteState, len(e.sites))
	for i, s := range e.sites {
		s := s
		limitUp := e.cfg.ThreadModel.Limit(s.upTuner.Threads())
		limitDn := e.cfg.ThreadModel.Limit(s.dnTuner.Threads())
		out[i] = sched.SiteState{
			BacklogStd:      s.cluster.BacklogStdSeconds(),
			PendingStd:      pendStd[i],
			Machines:        s.cluster.Size(),
			Speed:           s.cfg.Speed,
			UploadBacklog:   s.upQ.Backlog(),
			DownloadBacklog: s.downQ.Backlog(),
			DownloadPending: pendDown[i],
			PredictUploadBW: func(t float64) float64 {
				return min(s.upPred.Predict(t), limitUp)
			},
			PredictDownloadBW: func(t float64) float64 {
				return min(s.downPred.Predict(t), limitDn)
			},
		}
	}
	return out
}

// submitUploadSite starts the EC path via remote site k (1-based decision
// site minus one).
func (e *Engine) submitUploadSite(js *jobState, s *ecSite) {
	js.scheduledAt = e.eng.Now()
	s.bursts++
	link := fmt.Sprintf("upload%d", js.site)
	if e.wants(trace.UploadStart) {
		e.tracer.Emit(trace.Event{
			Type: trace.UploadStart, T: js.scheduledAt,
			JobID: js.j.ID, Seq: js.seq, Site: js.site, Link: link, Bytes: js.j.InputSize,
		})
	}
	it := &netsim.QueueItem{
		Bytes: js.j.InputSize,
		Meta:  js,
		OnDone: func(at float64, it *netsim.QueueItem, bw float64) {
			js.uploadItem = nil
			js.uploadDone = at
			e.uploadedBytes += it.Bytes
			if e.wants(trace.UploadEnd) {
				e.tracer.Emit(trace.Event{
					Type: trace.UploadEnd, T: at,
					JobID: js.j.ID, Seq: js.seq, Site: js.site, Link: link, Bytes: it.Bytes, BW: bw,
				})
			}
			e.submitECSite(js, s)
		},
	}
	js.uploadItem = it
	s.upQ.Enqueue(it)
}

func (e *Engine) submitECSite(js *jobState, s *ecSite) {
	s.cluster.Submit(&cluster.Task{
		Job:        js.j,
		StdSeconds: js.j.TrueProcTime,
		OnDone: func(at float64, t *cluster.Task, m *cluster.Machine) {
			e.observeProc(js.j, at-t.StartedAt, m.Speed)
			e.submitDownloadSite(js, s, at)
		},
	})
}

func (e *Engine) submitDownloadSite(js *jobState, s *ecSite, at float64) {
	js.downloading = true
	js.computeDone = at
	link := fmt.Sprintf("download%d", js.site)
	if e.wants(trace.DownloadStart) {
		e.tracer.Emit(trace.Event{
			Type: trace.DownloadStart, T: at,
			JobID: js.j.ID, Seq: js.seq, Site: js.site, Link: link, Bytes: js.j.OutputSize,
		})
	}
	s.downQ.Enqueue(&netsim.QueueItem{
		Bytes: js.j.OutputSize,
		Meta:  js,
		OnDone: func(doneAt float64, it *netsim.QueueItem, bw float64) {
			e.downloadedBytes += it.Bytes
			if e.wants(trace.DownloadEnd) {
				e.tracer.Emit(trace.Event{
					Type: trace.DownloadEnd, T: doneAt,
					JobID: js.j.ID, Seq: js.seq, Site: js.site, Link: link, Bytes: it.Bytes, BW: bw,
				})
			}
			e.complete(js, doneAt, sla.EC)
		},
	})
}
