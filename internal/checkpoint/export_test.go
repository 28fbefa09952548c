package checkpoint

// SetDropBatch arms the pipeline's fault-injection hook: the published
// batch with index i (0-based) is dropped instead of replayed, so a
// parallel capture diverges from the sequential reference. i < 0
// disarms. Tests use it to prove the equivalence assertions actually
// detect divergence (mutation verification).
func SetDropBatch(i int) {
	if i < 0 {
		testDropBatch.Store(0)
		return
	}
	testDropBatch.Store(int64(i) + 1)
}

// The version-1 set encoders (encode_ref_test.go), for the external tests
// that capture registered workloads: package workload imports this one, so
// they cannot live in it.
var (
	RefEncodeSet      = refEncodeSet
	RefEncodeMultiSet = refEncodeMultiSet
)
