package sweep

import (
	"reflect"

	"cloudburst/internal/metrics"
)

// Metrics is the per-cell measurement vector streamed to sinks, persisted
// in the resume manifest, and consumed by the aggregation layer. It mirrors
// the headline SLA metrics of a run report; producers fill it from either a
// public Report (root package) or an engine.Result (experiments).
type Metrics struct {
	Makespan   float64 `json:"makespan" csv:"makespan"`
	Speedup    float64 `json:"speedup" csv:"speedup"`
	BurstRatio float64 `json:"burstRatio" csv:"burst_ratio"`
	ICUtil     float64 `json:"icUtil" csv:"ic_util"`
	ECUtil     float64 `json:"ecUtil" csv:"ec_util"`
	TSeq       float64 `json:"tseq" csv:"tseq"`

	Jobs   int `json:"jobs" csv:"jobs"`
	Chunks int `json:"chunks" csv:"chunks"`

	PeakCount  int     `json:"peakCount" csv:"peak_count"`
	TotalStall float64 `json:"totalStall" csv:"total_stall"`

	ECMachineSeconds float64 `json:"ecMachineSeconds" csv:"ec_machine_seconds"`

	// Retry, cost, budget and shard counters; their JSON keys and CSV
	// columns flatten into this vector in place.
	metrics.Counters

	// AdmissionViolations is the audit's count of admitted bursts whose
	// realized round trip overran the admission threshold. It is only
	// measured when the producing run recorded its event stream; Audited
	// distinguishes a measured zero from "not measured". Consumers that
	// depend on audit-derived fields (the frontier search's
	// admission-violation predicate) must reject unaudited records instead
	// of trusting their zeros.
	AdmissionViolations int  `json:"admissionViolations,omitempty" csv:"admission_violations"`
	Audited             bool `json:"audited,omitempty"`
}

// metricDef names one metric column and the field index path that reads
// it.
type metricDef struct {
	name  string
	index []int
}

// metricDefs fixes the canonical metric order used by CSV columns and the
// aggregator: every csv-tagged field of Metrics, including the embedded
// counters, in declaration order.
var metricDefs = func() []metricDef {
	var defs []metricDef
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Metrics{})) {
		if name, ok := f.Tag.Lookup("csv"); ok {
			defs = append(defs, metricDef{name, f.Index})
		}
	}
	return defs
}()

// MetricNames returns the canonical metric column order.
func MetricNames() []string {
	out := make([]string, len(metricDefs))
	for i, d := range metricDefs {
		out[i] = d.name
	}
	return out
}

// Value returns the named metric, or 0 for an unknown name.
func (m Metrics) Value(name string) float64 {
	for _, d := range metricDefs {
		if d.name == name {
			f := reflect.ValueOf(m).FieldByIndex(d.index)
			if f.CanInt() {
				return float64(f.Int())
			}
			return f.Float()
		}
	}
	return 0
}
