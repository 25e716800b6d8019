package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {90, 4.6}, {25, 2},
	} {
		got, n := percentile(xs, tc.p)
		if math.Abs(got-tc.want) > 1e-12 || n != len(xs) {
			t.Errorf("percentile(%v) = %v (n=%d), want %v (n=%d)", tc.p, got, n, tc.want, len(xs))
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got, n := percentile(nil, 50); !math.IsNaN(got) || n != 0 {
		t.Errorf("empty percentile = %v (n=%d), want NaN (n=0)", got, n)
	}
}

func TestGrowthQuartering(t *testing.T) {
	// Nine steps: the quarters are the first two and the last two; the
	// middle five do not count.
	steps := []float64{1, 3, 100, 100, 100, 100, 100, 6, 10}
	if got := growth(steps); got != 4 {
		t.Errorf("growth = %v, want median(6, 10)/median(1, 3) = 4", got)
	}
	flat := []float64{2, 2, 2, 2, 2, 2, 2, 2}
	if got := growth(flat); got != 1 {
		t.Errorf("flat growth = %v, want 1", got)
	}
	// One slow step in a quarter moves its median, not its mean.
	spiky := []float64{1, 1, 50, 5, 5, 5, 5, 5, 5, 1, 1, 1}
	if got := growth(spiky); got != 1 {
		t.Errorf("spiky growth = %v, want 1", got)
	}
	if got := growth([]float64{1, 2, 3}); !math.IsNaN(got) {
		t.Errorf("growth of three steps = %v, want NaN", got)
	}
}

func TestDigestStability(t *testing.T) {
	r := row{Makespan: 4301.25, Speedup: 1.5, Jobs: 73, Conflicts: 2}
	if got, want := digest(r), "c8fd9a74190b2214"; got != want {
		t.Errorf("digest(row) = %s, want the pinned %s", got, want)
	}
	if digest(r) != digest(r) {
		t.Error("digest is not deterministic")
	}
	r2 := r
	r2.Makespan = math.Nextafter(r.Makespan, math.Inf(1))
	if digest(r2) == digest(r) {
		t.Error("digest ignores a one-ulp change in a float field")
	}
	if digest(1, 23) == digest(12, 3) {
		t.Error("digest does not separate its values")
	}
	if combineDigests([]string{"a", "b"}) == combineDigests([]string{"b", "a"}) {
		t.Error("combined digest ignores order")
	}
}

func TestLayerAttribution(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string
		want  string
	}{
		{"linalg under qrsm", []string{
			"cloudburst/internal/linalg.(*QR).Solve",
			"cloudburst/internal/linalg.Factor",
			"cloudburst/internal/qrsm.(*Model).fit",
			"cloudburst/internal/qrsm.(*Estimator).Observe",
			"cloudburst/internal/engine.(*Engine).observeProc",
			"cloudburst.RunContext",
		}, "qrsm"},
		{"math/rand under workload.Generate", []string{
			"math/rand.seedrand",
			"math/rand.(*rngSource).Seed",
			"math/rand.NewSource",
			"cloudburst/internal/stats.(*RNG).Fork",
			"cloudburst/internal/workload.(*Generator).Generate",
			"cloudburst.RunContext",
			"main.runOp.func1",
		}, "workload"},
		{"bare GC worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2",
			"runtime.systemstack",
			"runtime.gcBgMarkWorker",
			"runtime.goexit",
		}, "gc"},
		{"GC assist charged to the allocating layer", []string{
			"runtime.gcAssistAlloc",
			"runtime.mallocgc",
			"cloudburst/internal/netsim.(*Link).waterFill",
		}, "netsim"},
		{"generic sweep worker", []string{
			"sync.(*Mutex).Lock",
			"cloudburst/internal/sweep.Exec[...].func2",
		}, "sweep"},
		{"benchmark tracer", []string{
			counterPrefix + "Emit",
			"cloudburst/internal/engine.(*Engine).emitDelivered",
		}, "trace"},
		{"no layer frame", []string{"runtime.futex", "runtime.mstart"}, "other"},
		{"root package only", []string{"cloudburst.(*Options).Normalize", "main.main"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("%s: layerOf = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestLayerSharesSumToOne(t *testing.T) {
	shares := layerShares([]sample{
		{stack: []string{"cloudburst/internal/sim.(*Engine).Step"}, count: 3, cpuNS: 30},
		{stack: []string{"runtime.gcBgMarkWorker"}, count: 1, cpuNS: 10},
		{stack: []string{"runtime.mstart"}, count: 6, cpuNS: 60},
	})
	sum := 0.0
	for _, l := range layerNames {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-12 || shares["sim"] != 0.3 || shares["gc"] != 0.1 || shares["other"] != 0.6 {
		t.Errorf("shares = %v (sum %v)", shares, sum)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var ticks, spinTicks int64
	for _, s := range samples {
		ticks += s.count
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				spinTicks += s.count
				break
			}
		}
	}
	if ticks == 0 || spinTicks*2 < ticks {
		t.Errorf("%d of %d profiling ticks in spin, want most", spinTicks, ticks)
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestDeriveSeeds(t *testing.T) {
	a, b := deriveSeeds(1, 4), deriveSeeds(2, 4)
	seen := map[int64]bool{}
	for i := range a {
		if a[i] <= 0 || b[i] <= 0 {
			t.Errorf("non-positive seed: %v %v", a, b)
		}
		seen[a[i]], seen[b[i]] = true, true
	}
	if len(seen) != 8 {
		t.Errorf("seeds collide: %v %v", a, b)
	}
	if c := deriveSeeds(1, 4); c[3] != a[3] {
		t.Error("deriveSeeds is not deterministic")
	}
}
