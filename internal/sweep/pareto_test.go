package sweep

import (
	"math/rand"
	"reflect"
	"testing"

	"cloudburst/internal/metrics"
)

func paretoResult(index int, cost, makespan float64) Result {
	return Result{
		Cell:    Cell{Index: index},
		Metrics: Metrics{Counters: metrics.Counters{CostRental: cost}, Makespan: makespan},
	}
}

func TestParetoFront(t *testing.T) {
	results := []Result{
		paretoResult(0, 0.30, 100), // dominated by index 3 (cheaper, same speed)
		paretoResult(1, 0.00, 400), // frontier: cheapest
		paretoResult(2, 0.10, 250), // frontier
		paretoResult(3, 0.20, 100), // frontier: fastest for its price
		paretoResult(4, 0.10, 300), // dominated by index 2 (same cost, slower)
		paretoResult(5, 0.40, 120), // dominated: pricier and slower than 3
	}
	front := ParetoFront(results)
	got := make([]int, len(front))
	for i, p := range front {
		got[i] = p.Cell.Index
	}
	if want := []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("frontier cells = %v, want %v", got, want)
	}
	// Ascending cost, strictly descending makespan.
	for i := 1; i < len(front); i++ {
		if front[i].Cost < front[i-1].Cost {
			t.Fatalf("frontier not sorted by cost: %+v", front)
		}
		if front[i].Makespan >= front[i-1].Makespan {
			t.Fatalf("frontier point %d does not improve makespan: %+v", i, front)
		}
	}
	if front[0].Metrics.Makespan != 400 {
		t.Fatalf("frontier point lost its metrics: %+v", front[0])
	}
}

func TestParetoFrontDuplicatesCollapse(t *testing.T) {
	results := []Result{
		paretoResult(0, 0.10, 200),
		paretoResult(1, 0.10, 200), // exact duplicate: first index wins
	}
	front := ParetoFront(results)
	if len(front) != 1 || front[0].Cell.Index != 0 {
		t.Fatalf("duplicate handling: %+v", front)
	}
}

func TestParetoFrontEmpty(t *testing.T) {
	if front := ParetoFront(nil); front != nil {
		t.Fatalf("empty input yields %+v", front)
	}
}

func TestParetoFrontDuplicateGroupsShuffled(t *testing.T) {
	// Three clusters stress the tie-breaking rules: an equal-cost group
	// (only its fastest member survives), an equal-makespan group (only its
	// cheapest member survives), and an exact-duplicate pair on the frontier
	// (lowest index survives). The outcome must not depend on input order.
	results := []Result{
		// Equal cost 0.10: indices 1, 2, 3 share the price; 2 is fastest.
		paretoResult(1, 0.10, 300),
		paretoResult(2, 0.10, 240),
		paretoResult(3, 0.10, 260),
		// Equal makespan 200: indices 4, 5, 6 tie on speed; 4 is cheapest.
		paretoResult(4, 0.20, 200),
		paretoResult(5, 0.30, 200),
		paretoResult(6, 0.25, 200),
		// Exact duplicates at the cheap end of the frontier.
		paretoResult(7, 0.00, 400),
		paretoResult(8, 0.00, 400),
		// A strictly dominated straggler.
		paretoResult(9, 0.40, 500),
	}
	want := []int{7, 2, 4}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]Result(nil), results...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		front := ParetoFront(shuffled)
		got := make([]int, len(front))
		for i, p := range front {
			got[i] = p.Cell.Index
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: frontier %v, want %v (input order %v)", trial, got, want, indexOrder(shuffled))
		}
	}
}

func indexOrder(rs []Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Cell.Index
	}
	return out
}
