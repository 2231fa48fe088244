package mpi

import (
	"os"
	"strings"
	"sync/atomic"
)

// fastFwd is the process-wide analytic fast-forward switch (default on).
// When set, continuation hops whose outcome cannot interact with any other
// pending event run inline at their exact position via sim.Engine.AbsorbAsOf
// instead of round-tripping through the event queue, the port parks the
// provably-failing first check of a contended lock attempt at issue, and a
// wake resolves a grant landing at its own position inline — while keeping
// every surviving event at its literal (time, scheduling-time) key and every
// counter bit-identical.
// DESIGN.md §11 gives the equivalence argument; the differential oracle in
// internal/core/fastforward_test.go enforces it. Results are identical
// either way, so the switch is not part of any configuration or cache key —
// it exists for that oracle and for CI's forced-on/forced-off golden shards.
var fastFwd atomic.Bool

func init() {
	fastFwd.Store(envFastForward(os.Getenv("HDLS_FASTFORWARD")))
}

// envFastForward interprets the HDLS_FASTFORWARD environment variable:
// "0"/"off"/"false"/"no" (any case) force the literal event-per-step
// protocol; anything else, unset included, leaves the analytic fast-forward
// on.
func envFastForward(v string) bool {
	switch strings.ToLower(v) {
	case "0", "off", "false", "no":
		return false
	}
	return true
}

// FastForwardEnabled reports the process-wide fast-forward switch.
func FastForwardEnabled() bool { return fastFwd.Load() }

// SetFastForward sets the process-wide fast-forward switch and returns the
// previous value. Flipping it never changes observable output — only the
// number of host events spent producing it.
func SetFastForward(on bool) bool { return fastFwd.Swap(on) }
