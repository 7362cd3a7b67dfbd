package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so the spread this program reports matches the
// one a reader recomputes from the same values. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailMin is the number of samples a reported tail percentile must have
// beyond it.
const tailMin = 10

// tail is the highest percentile of xs with at least tailMin samples
// beyond it: the value, its percentile (share of samples at or below it,
// in percent) and whether the rule could be met. With tailMin samples or
// fewer no percentile qualifies, and tail reports the smallest value,
// the one with the most samples beyond it, with ok false. Below
// 2*tailMin+1 samples the qualifying percentile lies at or below the
// median.
func tail(xs []float64) (v, pct float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), 0, false
	}
	k := max(n-tailMin-1, 0)
	return s[k], 100 * float64(k+1) / float64(n), n > tailMin
}

// stealMax is the share of the machine's CPU time the hypervisor may
// withhold during a round (an op with its set-up launches) for the
// round to count as calm.
const stealMax = 0.02

// calmRounds chooses, from the host steal of each round of a run, the
// rounds whose figures the run reports. On a shared host a neighbour's
// burst slows every op that overlaps it, and no statistic of the op
// times alone can tell such an op from a slow one; the steal counter
// can. The choice never looks at the figures themselves, and every
// round's output is checked whether it counts or not.
//
// Rounds are grouped by the job they ran (one group on a CLI workload).
// Each group counts the same number k of its calmest rounds, so the mix
// a run reports does not depend on which jobs a burst happened to hit:
// k is the fewest rounds at or under stealMax in any group, but at least
// half of each group.
func calmRounds(steal []float64, group []string) []bool {
	groups := map[string][]int{}
	for i, g := range group {
		groups[g] = append(groups[g], i)
	}
	k := len(steal)
	for _, idx := range groups {
		calm := 0
		for _, i := range idx {
			if steal[i] <= stealMax {
				calm++
			}
		}
		k = min(k, calm)
	}
	keep := make([]bool, len(steal))
	for _, idx := range groups {
		order := append([]int(nil), idx...)
		sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
		for _, i := range order[:min(len(order), max(k, (len(order)+1)/2))] {
			keep[i] = true
		}
	}
	return keep
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// The comparison of two sets of runs of one metric, parent against
// change, under the rules of the repository's measurement method.
const (
	verdictBetter     = "better"      // a gain: the change wins ≥9/10 of pairs by more than the parent's spread
	verdictWorse      = "worse"       // the change's median is worse than the parent's by more than the bound
	verdictSame       = "same"        // neither
	verdictUnresolved = "unresolved"  // the parent's own spread exceeds the bound
	verdictMoreFailed = "more-failed" // the change failed more ops than the parent: no gain counts
)

// series is one side's per-run values of one metric, in run order, and
// the number of ops that side's runs failed.
type series struct {
	values []float64
	failed int
}

// compareRuns judges change against parent for one metric. Runs pair up
// by index; lower says which direction is better and bound is the share
// of the parent's median the metric may worsen by. A change that failed
// more ops than the parent is flagged and never better, since ops that
// fail early can make the ones left look fast.
func compareRuns(parentS, changeS series, lower bool, bound float64) (string, error) {
	parent, change := parentS.values, changeS.values
	if len(parent) < 2 || len(change) < 2 {
		return "", fmt.Errorf("compare: need at least two runs per side, have %d and %d", len(parent), len(change))
	}
	better := func(a, b float64) bool { // a better than b
		if lower {
			return a < b
		}
		return a > b
	}
	if changeS.failed > parentS.failed {
		return verdictMoreFailed, nil
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if 10*wins >= 9*pairs && better(cm, pm) && math.Abs(cm-pm) > q3-q1 {
		return verdictBetter, nil
	}
	worseBy := (cm - pm) / pm
	if !lower {
		worseBy = -worseBy
	}
	if (q3-q1)/pm > bound {
		allBetter := true
		for _, c := range change {
			for _, p := range parent {
				if !better(c, p) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return verdictUnresolved, nil
		}
	}
	if worseBy > bound {
		return verdictWorse, nil
	}
	return verdictSame, nil
}
