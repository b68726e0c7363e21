package workload

import "fmt"

// Repeat returns the trace tiled n times. n <= 0 yields an empty trace.
func (t *Trace) Repeat(n int) *Trace {
	out := &Trace{Name: fmt.Sprintf("%s x%d", t.Name, n)}
	for k := 0; k < n; k++ {
		out.Slots = append(out.Slots, t.Slots...)
	}
	return out
}
