package checkpoint

// The version-1 set encoders (encode_ref_test.go) and the capture over the
// per-variant-L1I warmer (capture_test.go), for the external tests that
// capture registered workloads: package workload imports this one, so they
// cannot live in it.
var (
	RefEncodeSet      = refEncodeSet
	RefEncodeMultiSet = refEncodeMultiSet
	RefCapture        = refCapture
)
