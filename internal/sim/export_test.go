package sim

// Len reports how many events are pending.
func (q *EventQueue) Len() int { return len(q.h) }
