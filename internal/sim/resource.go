package sim

// Server is a single FIFO service station: requests are serviced one at a
// time, each occupying the server for its service duration. It models
// serialization points such as an RMA window's host port or a shared cache
// line. Waiting time under load emerges from the queue.
type Server struct {
	busyUntil Time
}

// ServeAsync reserves service time for a request arriving at now, behind
// every earlier reservation, and returns the virtual time at which it
// completes. A requester that waits for its own service schedules its
// continuation at now+(done−now) with born now — the position of a literal
// sleep through the queueing delay and the service.
func (s *Server) ServeAsync(now Time, service Time) Time {
	if s.busyUntil < now {
		s.busyUntil = now
	}
	s.busyUntil += service
	return s.busyUntil
}
