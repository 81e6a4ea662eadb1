package stats

// This file holds the quantile read-out of the fixed-memory Histogram
// used by the trace-free observer pipeline: campaigns and long runs
// summarise distributions online instead of retaining samples.

// Quantile estimates the q-quantile of the weighted observations in the
// histogram by linear interpolation within the containing bin, treating
// the weight of each bin as uniformly spread across it. Underflow mass
// is attributed to Lo and overflow mass to Hi (the histogram cannot
// resolve beyond its bounds). It returns an error when no weight has
// been recorded. Accuracy is bounded by the bin width — size the bins to
// the resolution the consumer needs.
func (h *Histogram) Quantile(q float64) (float64, error) {
	if h.total <= 0 {
		return 0, ErrEmpty
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * h.total
	cum := h.under
	// Only genuine underflow mass maps to Lo; with none, q=0 falls
	// through to the lower edge of the first bin holding weight rather
	// than fabricating a value the data never reached.
	if target <= cum && cum > 0 {
		return h.Lo, nil
	}
	width := (h.Hi - h.Lo) / float64(len(h.Bins))
	for i, w := range h.Bins {
		if w > 0 && cum+w >= target {
			frac := (target - cum) / w
			return h.Lo + (float64(i)+frac)*width, nil
		}
		cum += w
	}
	return h.Hi, nil
}
