package repro_test

// traceGolden is one frozen trace digest plus the cell's Summary.
type traceGolden struct {
	digest  string
	summary string
}

// traceGoldenWant freezes the OpenMP-executor traces as produced by the
// goroutine-driven executors (captured with -print-trace-golden). Regenerate
// only for a deliberate model change.
var traceGoldenWant = map[string]traceGolden{
	"mpiopenmp-gss-static-2node": {
		digest:  "346:a102b07be52327d45ae052014940d32c8ca8e6ba1fe3ed239d0264ae431ce0d0",
		summary: "{ParallelTime:0.24475319193262507 NodeFinishCoV:0.07650487854537444 LoadImbalance:0.735659385343383 Workers:32 GlobalChunks:15 LocalChunks:176 LockAttempts:0 LockAcquisitions:0 BarrierWait:4.930452344847736}",
	},
	"mpiopenmp-fac2-ss-3node": {
		digest:  "2419:7e45e8900639aa93046ecb44cd703553d7e5e2b6f2937967ac3d433dab9e930d",
		summary: "{ParallelTime:0.0015513284240080247 NodeFinishCoV:0.011817259149700186 LoadImbalance:0.07702758801346454 Workers:48 GlobalChunks:23 LocalChunks:2048 LockAttempts:0 LockAcquisitions:0 BarrierWait:0.008227172078430392}",
	},
	"mpiopenmp-static-gss-4node": {
		digest:  "452:8ca778f29dd0e5fed772652dc62c0dc3fb7e1244c4b7c99b012e9a1dc839cf98",
		summary: "{ParallelTime:0.14914817269926614 NodeFinishCoV:0.731810343782275 LoadImbalance:3.0720467964039404 Workers:64 GlobalChunks:4 LocalChunks:384 LockAttempts:0 LockAcquisitions:0 BarrierWait:2.413476213776919}",
	},
	"nowait-gss-ss-2node": {
		digest:  "16401:0caac44494de6df4d91062b1b2ff8843ff5a488862e9b9c9def3712501793464",
		summary: "{ParallelTime:0.07327280846478823 NodeFinishCoV:5.884635356130954e-05 LoadImbalance:0.000124351050049043 Workers:32 GlobalChunks:15 LocalChunks:16384 LockAttempts:0 LockAcquisitions:0 BarrierWait:0}",
	},
	"nowait-tss-static-4node": {
		digest:  "242:a5c3e0c28174f3300112bdc7b102890aea3f19798dc37091bc0e211135384197",
		summary: "{ParallelTime:0.0011259262008944944 NodeFinishCoV:0.054042092895711394 LoadImbalance:0.14432355777784434 Workers:64 GlobalChunks:15 LocalChunks:223 LockAttempts:0 LockAcquisitions:0 BarrierWait:0}",
	},
	"nowait-fac2-gss-3node": {
		digest:  "1064:f347a2f5987b814c04c241be8fccf9dc28d1d20e2b7f4843c70baa51e9f88be2",
		summary: "{ParallelTime:0.10010077287817416 NodeFinishCoV:0.27324337404304144 LoadImbalance:1.0496659706563816 Workers:48 GlobalChunks:31 LocalChunks:1030 LockAttempts:0 LockAcquisitions:0 BarrierWait:0}",
	},
	"mpiopenmp-hetero-gss-gss-2node": {
		digest:  "481:7b7648ca4fcb59a76ded471c457095bbd8035b75a25c8c2f6c222d8d46adafe0",
		summary: "{ParallelTime:0.004025960086096808 NodeFinishCoV:0.11476342847063431 LoadImbalance:0.20876992036198594 Workers:24 GlobalChunks:12 LocalChunks:295 LockAttempts:0 LockAcquisitions:0 BarrierWait:0.005117737682738179}",
	},
	"nowait-perturbed-fac2-ss-2node": {
		digest:  "2072:bd460851d426c0d7984848b6dcc0e42cb8a1518d80b86afd96669ccebe6cf5af",
		summary: "{ParallelTime:0.0021937547462280898 NodeFinishCoV:0.0023829111256679523 LoadImbalance:0.015682455570861453 Workers:32 GlobalChunks:22 LocalChunks:2048 LockAttempts:0 LockAcquisitions:0 BarrierWait:0}",
	},
}
