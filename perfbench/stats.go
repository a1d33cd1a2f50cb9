package main

import (
	"math"
	"sort"
)

// median of v, the mean of the middle pair for even lengths.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of v: the smallest
// value with at least p% of the samples at or below it.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

func collect(passes []*passResult, f func(*passResult) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

func opCPUs(ops []opSample) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.cpu
	}
	return out
}

func sumCPU(ops []opSample) float64 {
	var s float64
	for _, o := range ops {
		s += o.cpu
	}
	return s
}
