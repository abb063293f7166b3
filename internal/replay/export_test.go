package replay

// Queued returns how many decoded records wait in r's queues.
func Queued(r *Replayer) int {
	n := 0
	for _, q := range r.inputQ {
		n += q.len()
	}
	for _, q := range r.orderQ {
		n += q.len()
	}
	for i := range r.wlQ {
		n += r.wlQ[i].len()
	}
	return n
}
