package ml

import (
	"math"

	"qens/internal/dataset"
)

// runningStats tracks streaming per-feature mean/variance (Welford's
// algorithm) plus the same for the target. Models standardize inputs
// and targets with these statistics so that raw-scale data (air
// quality values span three orders of magnitude) trains stably with
// the paper's Table III learning rates, and keep updating them across
// PartialFit calls so incremental per-cluster training stays sane.
type runningStats struct {
	count float64
	mean  []float64
	m2    []float64
	yMean float64
	yM2   float64
}

func newRunningStats(dim int) *runningStats {
	return &runningStats{mean: make([]float64, dim), m2: make([]float64, dim)}
}

// observe folds every row of v into the statistics, in order (a
// Welford update per sample: the features, then the target).
func (s *runningStats) observe(v dataset.View) {
	t := v.TargetIndex()
	for i := range v.Len() {
		row := v.Row(i)
		s.count++
		j := 0
		for c, x := range row {
			if c == t {
				continue
			}
			delta := x - s.mean[j]
			s.mean[j] += delta / s.count
			s.m2[j] += delta * (x - s.mean[j])
			j++
		}
		y := row[t]
		dy := y - s.yMean
		s.yMean += dy / s.count
		s.yM2 += dy * (y - s.yMean)
	}
}

// reset returns the statistics to the freshly-constructed state
// without reallocating (model pool reuse).
func (s *runningStats) reset() {
	s.count, s.yMean, s.yM2 = 0, 0, 0
	for i := range s.mean {
		s.mean[i] = 0
		s.m2[i] = 0
	}
}

// std returns the standard deviation of feature j (>= tiny floor).
func (s *runningStats) std(j int) float64 {
	if s.count < 2 {
		return 1
	}
	sd := math.Sqrt(s.m2[j] / s.count)
	if sd < 1e-9 {
		return 1
	}
	return sd
}

// yStd returns the target standard deviation (>= tiny floor).
func (s *runningStats) yStd() float64 {
	if s.count < 2 {
		return 1
	}
	sd := math.Sqrt(s.yM2 / s.count)
	if sd < 1e-9 {
		return 1
	}
	return sd
}

// normX standardizes the features of row into dst: every column but
// skip, which names the target column of a joint-space row (-1 for a
// feature vector).
func (s *runningStats) normX(dst, row []float64, skip int) {
	j := 0
	for c, v := range row {
		if c == skip {
			continue
		}
		dst[j] = (v - s.mean[j]) / s.std(j)
		j++
	}
}

// normY standardizes a target value.
func (s *runningStats) normY(y float64) float64 { return (y - s.yMean) / s.yStd() }

// denormY maps a standardized prediction back to the target scale.
func (s *runningStats) denormY(y float64) float64 { return y*s.yStd() + s.yMean }

// appendTo serializes the statistics for Params transport onto dst.
func (s *runningStats) appendTo(dst []float64) []float64 {
	dst = append(dst, s.count, s.yMean, s.yM2)
	dst = append(dst, s.mean...)
	return append(dst, s.m2...)
}

// flatLen returns the serialized length for dim features.
func statsFlatLen(dim int) int { return 2*dim + 3 }

// unflatten restores statistics from a serialized slice.
func (s *runningStats) unflatten(v []float64) {
	dim := len(s.mean)
	s.count, s.yMean, s.yM2 = v[0], v[1], v[2]
	copy(s.mean, v[3:3+dim])
	copy(s.m2, v[3+dim:3+2*dim])
}
