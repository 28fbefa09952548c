package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is the outcome of comparing one metric of one workload.
type verdict string

const (
	ok         verdict = "ok"
	regressed  verdict = "regressed"  // B's median is worse than A's by more than the bound
	unresolved verdict = "unresolved" // a side's own spread is wider than the bound
)

// judge compares B with A for one metric: the ratio of the medians, and
// whether B is worse by more than the bound. A metric whose quartiles
// lie further apart than the bound on either side cannot show a
// difference of that size, so it is unresolved rather than ok.
func judge(a, b summary) (ratio float64, v verdict) {
	if a.Median == 0 {
		return 0, unresolved
	}
	ratio = b.Median / a.Median
	worse := ratio - 1
	if a.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case a.N > 1 && a.spread() > a.Bound, b.N > 1 && b.spread() > a.Bound:
		return ratio, unresolved
	case worse > a.Bound:
		return ratio, regressed
	}
	return ratio, ok
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Trace {
		return nil, fmt.Errorf("%s is a traced run; compare end-to-end results", path)
	}
	return &r, nil
}

// compareMain prints, for every workload and end-to-end metric the two
// files share, both medians, B/A, the bound and the verdict, and whether
// the simulated statistics are identical. It exits non-zero when any
// metric regressed or an operation failed.
func compareMain(pathA, pathB string, stdout io.Writer) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "A = %s (seed %d)\nB = %s (seed %d)\n", pathA, a.Seed, pathB, b.Seed)
	if a.Seed != b.Seed {
		fmt.Fprintln(stdout, "warning: the seeds differ: the inputs are not the same, and sim_digest cannot be equal")
	}
	for _, k := range sortedKeys(a.Host) {
		if a.Host[k] != b.Host[k] {
			fmt.Fprintf(stdout, "warning: the hosts differ: %s is %q in A, %q in B\n", k, a.Host[k], b.Host[k])
		}
	}
	bad := 0
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(stdout, "\n== %s ==  only in A\n", wa.Name)
			continue
		}
		same := map[bool]string{true: "equal", false: "different"}
		fmt.Fprintf(stdout, "\n== %s ==  sim_digest %s", wa.Name, same[wa.SimDigest == wb.SimDigest])
		if wa.SimDigestUnstable != "" {
			fmt.Fprintf(stdout, "  sim_digest_unstable %s", same[wa.SimDigestUnstable == wb.SimDigestUnstable])
		}
		fmt.Fprintf(stdout, "  failed A %d/%d  B %d/%d\n", wa.Failed, wa.Ops, wb.Failed, wb.Ops)
		bad += wa.Failed + wb.Failed
		fmt.Fprintf(stdout, "%-14s %12s %12s %12s %6s  %-10s %s\n", "metric", "A median", "B median", "B/A (base A)", "bound", "verdict", "unit")
		for _, ma := range wa.Metrics {
			for _, mb := range wb.Metrics {
				if mb.Name != ma.Name {
					continue
				}
				ratio, v := judge(ma, mb)
				if v == regressed {
					bad++
				}
				fmt.Fprintf(stdout, "%-14s %12.6g %12.6g %12.3f %5.0f%%  %-10s %s\n", ma.Name, ma.Median, mb.Median, ratio, ma.Bound*100, v, ma.Unit)
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
