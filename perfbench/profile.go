package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
)

// layers are the cloudburst packages a CPU sample can be charged to, by
// import path. Packages outside this table (internal/stats, internal/linalg,
// internal/job, the root API package, the standard library, this benchmark)
// are not layers: their frames fold into the nearest layer frame above them.
var layers = map[string]string{
	"cloudburst/internal/workload": "workload",
	"cloudburst/internal/qrsm":     "qrsm",
	"cloudburst/internal/sched":    "sched",
	"cloudburst/internal/shard":    "shard",
	"cloudburst/internal/sim":      "sim",
	"cloudburst/internal/netsim":   "netsim",
	"cloudburst/internal/cluster":  "cluster",
	"cloudburst/internal/sla":      "sla",
	"cloudburst/internal/window":   "window",
	"cloudburst/internal/trace":    "trace",
	"cloudburst/internal/sweep":    "sweep",
	"cloudburst/internal/engine":   "engine",
}

// layerNames lists every bucket a sample can land in, in report order; the
// shares over these names sum to 1.
var layerNames = []string{
	"workload", "qrsm", "sched", "shard", "sim", "netsim", "cluster",
	"sla", "window", "trace", "sweep", "engine", "gc", "other",
}

// counterPrefix is the symbol prefix of the benchmark's own event-counting
// tracer, whose time is tracing cost and so charged to the trace layer. It
// is read from the binary: the package is "main" in the benchmark but
// carries its import path under go test.
var counterPrefix = strings.TrimSuffix(
	runtime.FuncForPC(reflect.ValueOf((*eventCounter).Emit).Pointer()).Name(), "Emit")

// funcPackage returns the import path of a fully qualified Go function
// name such as "cloudburst/internal/sweep.Exec[...].func1".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// isGCFunc reports whether fn is one of the runtime's background
// collector entry points.
func isGCFunc(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gcBgMarkWorker") ||
		strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge")
}

// layerOf charges one sample to a layer. The stack is leaf first. The
// innermost frame whose package is a layer wins; a stack with no layer
// frame goes to gc when it is a collector worker, and to other otherwise.
func layerOf(stack []string) string {
	gc := false
	for _, fn := range stack {
		if strings.HasPrefix(fn, counterPrefix) {
			return "trace"
		}
		if l, ok := layers[funcPackage(fn)]; ok {
			return l
		}
		gc = gc || isGCFunc(fn)
	}
	if gc {
		return "gc"
	}
	return "other"
}

// sample is one decoded CPU-profile record: a stack, leaf first with
// inlined calls expanded, how many profiling ticks landed on it, and
// their CPU time in nanoseconds.
type sample struct {
	stack []string
	count int64
	cpuNS int64
}

// layerShares charges every sample to a layer and returns each layer's
// share of the total CPU time, keyed by layerNames. With no samples every
// share is zero.
func layerShares(samples []sample) map[string]float64 {
	byLayer := make(map[string]int64, len(layerNames))
	var total int64
	for _, s := range samples {
		byLayer[layerOf(s.stack)] += s.cpuNS
		total += s.cpuNS
	}
	shares := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		if total > 0 {
			shares[l] = float64(byLayer[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares
}

// parseProfile decodes a gzipped pprof CPU profile as written by
// runtime/pprof. Only the fields attribution needs are read: samples,
// locations with their lines, functions and the string table.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		valueTypes [][2]uint64 // (type, unit) string indexes
		samples    []rawSample
		locLines   = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames  = map[uint64]uint64{}   // function id → name string index
		strs       []string
	)
	err = eachField(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			})
			valueTypes = append(valueTypes, vt)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, d)
				case 2:
					return appendPacked(&s.values, v, d)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	count, cpu := -1, -1
	for i, vt := range valueTypes {
		switch str(vt[0]) {
		case "samples":
			count = i
		case "cpu":
			cpu = i
		}
	}
	if count < 0 || cpu < 0 {
		return nil, errors.New("profile: not a CPU profile")
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if count >= len(s.values) || cpu >= len(s.values) {
			return nil, errors.New("profile: sample without its values")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		out = append(out, sample{stack: stack, count: int64(s.values[count]), cpuNS: int64(s.values[cpu])})
	}
	return out, nil
}

// appendPacked appends one repeated scalar field, which protobuf encodes
// either as a single varint (v) or as a packed run of varints (d).
func appendPacked(dst *[]uint64, v uint64, d []byte) error {
	if d == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(d) > 0 {
		x, n := binary.Uvarint(d)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		d = d[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message. Varint fields reach
// fn as v with data nil; length-delimited fields as data (non-nil, possibly
// empty). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
