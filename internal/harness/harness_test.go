package harness

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/workload"
)

func testLab() *Lab {
	l := NewLab(60_000)
	l.Only = []string{"mcf", "lbm"}
	return l
}

func TestTableFormatAndCSV(t *testing.T) {
	tab := &Table{
		Title:   "test",
		Columns: []string{"app", "a", "b"},
		Rows: []Row{
			{Label: "x", Cells: []float64{1.5, -2}},
			{Label: "y", Cells: []float64{0, 3.25}},
		},
		Notes: []string{"note"},
	}
	s := tab.Format()
	for _, want := range []string{"== test ==", "x", "y", "# note"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format missing %q:\n%s", want, s)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "app,a,b\n") || !strings.Contains(csv, "x,1.5,-2") {
		t.Errorf("CSV = %q", csv)
	}
}

func TestGeoMeanGain(t *testing.T) {
	tab := &Table{Rows: []Row{
		{Cells: []float64{10}},
		{Cells: []float64{10}},
	}}
	if g := tab.GeoMeanGain(0); g < 9.99 || g > 10.01 {
		t.Errorf("geomean of equal gains = %v, want 10", g)
	}
	if g := (&Table{}).GeoMeanGain(0); g != 0 {
		t.Errorf("empty geomean = %v", g)
	}
}

func TestFigure1Structure(t *testing.T) {
	l := NewLab(40_000)
	tab := l.Figure1Skip(500, 20, 0).MustTable()
	if len(tab.Rows) == 0 || len(tab.Rows) > 20 {
		t.Fatalf("Figure1Skip rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r.Cells) != 2 {
			t.Fatalf("row %s has %d cells", r.Label, len(r.Cells))
		}
		for _, upc := range r.Cells {
			if upc < 0 || upc > 6 {
				t.Errorf("UPC %v outside [0, 6]", upc)
			}
		}
	}
}

func TestFigure7Structure(t *testing.T) {
	l := testLab()
	tab := l.Figure7().MustTable()
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r.Cells) != 5 {
			t.Fatalf("row %s cells = %d, want 5 (crisp + 4 IBDA)", r.Label, len(r.Cells))
		}
	}
	// mcf: CRISP must beat baseline on the chase-heavy workload.
	if tab.Rows[0].Label != "mcf" || tab.Rows[0].Cells[0] <= 0 {
		t.Errorf("mcf CRISP gain = %v, want > 0", tab.Rows[0].Cells[0])
	}
}

func TestFigure8SliceToggles(t *testing.T) {
	l := testLab()
	tab := l.Figure8().MustTable()
	for _, r := range tab.Rows {
		if len(r.Cells) != 3 {
			t.Fatalf("row %s cells = %d", r.Label, len(r.Cells))
		}
	}
}

func TestFigure9WindowSweep(t *testing.T) {
	l := NewLab(60_000)
	l.Only = []string{"xhpcg"}
	tab := l.Figure9().MustTable()
	if len(tab.Rows) != 1 || len(tab.Rows[0].Cells) != len(windowConfigs) {
		t.Fatalf("unexpected shape: %+v", tab.Rows)
	}
}

func TestFigure10ThresholdMonotonicCandidates(t *testing.T) {
	l := testLab()
	tab := l.Figure10().MustTable()
	if len(tab.Columns) != 4 {
		t.Fatalf("columns = %v", tab.Columns)
	}
}

func TestFigure11And12(t *testing.T) {
	l := testLab()
	f11 := l.Figure11().MustTable()
	for _, r := range f11.Rows {
		if r.Cells[0] < 0 || r.Cells[1] < 0 || r.Cells[1] > 1 {
			t.Errorf("row %s: implausible cells %v", r.Label, r.Cells)
		}
	}
	f12 := l.Figure12().MustTable()
	for _, r := range f12.Rows {
		if r.Cells[0] < 0 || r.Cells[0] > 10 {
			t.Errorf("row %s: static overhead %v%% implausible", r.Label, r.Cells[0])
		}
		if r.Cells[1] < 0 || r.Cells[1] > 50 {
			t.Errorf("row %s: dynamic overhead %v%% implausible", r.Label, r.Cells[1])
		}
	}
}

func TestTable1Render(t *testing.T) {
	s := NewLab(1000).Table1()
	for _, want := range []string{"224 entries", "96 entries", "TAGE", "bop+stream"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

// TestTable1Golden pins the Table 1 text byte for byte against
// testdata/table1.txt, rendered from the default machine configuration.
func TestTable1Golden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := NewLab(400_000).Table1(); got != string(want) {
		t.Fatalf("Table 1 differs from testdata/table1.txt:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestLabSingleFlight pins the fix for the Lab.train/Lab.Baseline
// duplicate-work race: concurrent cache misses on the same expensive run
// must collapse to ONE simulation (the old check-then-act map cache could
// run the same train profile twice). All callers must observe the same
// result instance.
func TestLabSingleFlight(t *testing.T) {
	l := NewLab(30_000)
	w := workload.ByName("mcf")
	const callers = 8
	results := make([]*core.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = l.Baseline(w)
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result instance", i)
		}
	}
	if s := l.R.Stats(); s.Executed != 1 {
		t.Fatalf("%d simulations executed for %d concurrent identical requests, want 1", s.Executed, callers)
	}

	// The analysis path (the old Lab.train) is memoized the same way.
	a1 := l.Analyze(w, crisp.DefaultOptions())
	a2 := l.Analyze(w, crisp.DefaultOptions())
	if a1 != a2 {
		t.Errorf("Analyze results not memoized")
	}
}

func TestAnalyzeProducesTags(t *testing.T) {
	l := NewLab(60_000)
	a := l.Analyze(workload.ByName("mcf"), crisp.DefaultOptions())
	if len(a.CriticalPCs) == 0 {
		t.Fatalf("no critical PCs for mcf")
	}
}

func TestSection31(t *testing.T) {
	l := NewLab(50_000)
	tab := l.Section31().MustTable()
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[1].Cells[0] <= tab.Rows[0].Cells[0] {
		t.Errorf("hoisted IPC %.3f not above baseline %.3f",
			tab.Rows[1].Cells[0], tab.Rows[0].Cells[0])
	}
}

func TestPrefetcherSensitivity(t *testing.T) {
	l := NewLab(50_000)
	l.Only = []string{"mcf"}
	tab := l.PrefetcherSensitivity().MustTable()
	if len(tab.Rows) != 1 || len(tab.Rows[0].Cells) != 4 {
		t.Fatalf("unexpected shape: %+v", tab.Rows)
	}
	// The chase gain should be present regardless of prefetcher.
	for i, g := range tab.Rows[0].Cells {
		if g < 0.5 {
			t.Errorf("mcf gain under %s = %.2f%%, want > 0.5%%", tab.Columns[i+1], g)
		}
	}
}

// TestPendingErrorPropagates: a figure over an unknown workload fails
// with the name list instead of panicking inside a worker goroutine.
func TestPendingErrorPropagates(t *testing.T) {
	l := NewLab(10_000)
	l.Only = []string{"no-such-workload"}
	_, err := l.Figure7().Table(context.Background())
	if err == nil || !strings.Contains(err.Error(), "no-such-workload") || !strings.Contains(err.Error(), "mcf") {
		t.Fatalf("err = %v, want unknown-workload error listing known names", err)
	}
}

// TestTableIsIdempotent: a Pending's Table resolves into a fresh table on
// every call and counts every run once a call, so a second call renders
// what the first did: rows and notes not appended again, and the
// CycleAccounting skip footnote (HostNotes) over the runs once.
func TestTableIsIdempotent(t *testing.T) {
	l := testLab()
	l.Insts = 30_000
	l.HostNotes = true
	for name, p := range map[string]*Pending{"Figure4": l.Figure4(), "CycleAccounting": l.CycleAccounting()} {
		first := p.MustTable().Format()
		if second := p.MustTable().Format(); second != first {
			t.Errorf("%s: the second Table call renders\n%s\nthe first\n%s", name, second, first)
		}
	}
}
