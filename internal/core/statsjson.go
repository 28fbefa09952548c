package core

import (
	"fmt"

	"crisp/internal/metrics"
)

// The per-PC profiles encode as flat integer rows through the parser and
// appender metrics.Hist uses (internal/metrics/row.go): a result holds
// one LoadProf per static load, so their field names and zero latency
// buckets were most of its bytes and of a reader's decode time. The
// decoders accept exactly what the encoders write.

// loadProfScalars is the number of counters before LatHist's row.
const loadProfScalars = 7

// MarshalJSON encodes the profile as [Count, L1Miss, LLCMiss, TotalLat,
// MLPSum, HeadStall, Forwards, <LatHist's row>].
func (p LoadProf) MarshalJSON() ([]byte, error) {
	var buf [loadProfScalars + metrics.HistRowMax]uint64
	row := append(buf[:0], p.Count, p.L1Miss, p.LLCMiss, p.TotalLat, p.MLPSum, p.HeadStall, p.Forwards)
	return metrics.AppendRow(make([]byte, 0, 96), p.LatHist.AppendRow(row)), nil
}

// UnmarshalJSON decodes the row written by MarshalJSON and nothing else;
// on an error p is left zero.
func (p *LoadProf) UnmarshalJSON(data []byte) error {
	*p = LoadProf{}
	var buf [loadProfScalars + metrics.HistRowMax]uint64
	n, err := metrics.ParseRow(data, buf[:])
	if err != nil {
		return err
	}
	if n <= loadProfScalars {
		return fmt.Errorf("core: load profile row of %d elements, want at least %d", n, loadProfScalars+1)
	}
	var h metrics.Hist
	if err := h.SetRow(buf[loadProfScalars:n]); err != nil {
		return err
	}
	*p = LoadProf{Count: buf[0], L1Miss: buf[1], LLCMiss: buf[2], TotalLat: buf[3],
		MLPSum: buf[4], HeadStall: buf[5], Forwards: buf[6], LatHist: h}
	return nil
}

// MarshalJSON encodes the profile as [Count, Mispred, Taken].
func (p BranchProf) MarshalJSON() ([]byte, error) {
	return metrics.AppendRow(make([]byte, 0, 32), []uint64{p.Count, p.Mispred, p.Taken}), nil
}

// UnmarshalJSON decodes the row written by MarshalJSON and nothing else;
// on an error p is left zero.
func (p *BranchProf) UnmarshalJSON(data []byte) error {
	*p = BranchProf{}
	var buf [3]uint64
	n, err := metrics.ParseRow(data, buf[:])
	if err != nil {
		return err
	}
	if n != len(buf) {
		return fmt.Errorf("core: branch profile row of %d elements, want %d", n, len(buf))
	}
	*p = BranchProf{Count: buf[0], Mispred: buf[1], Taken: buf[2]}
	return nil
}
