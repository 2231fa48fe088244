package core

import "sync/atomic"

// lastRunPushes records the engine's queue-insertion count of the most
// recent MPI+MPI run. It instruments the fast-forward event census in
// fastforward_test.go: wall-clock comparisons drown in host noise, but the
// number of engine events a cell costs is deterministic per configuration.
var lastRunPushes atomic.Uint64
