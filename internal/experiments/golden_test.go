package experiments

import (
	"os"
	"strings"
	"testing"

	"preemptsched/internal/metrics"
)

// TestGoldenReportTables re-renders the tables that exercise adaptive
// victim selection in both scheduler layers — Fig. 5 (simulator), Fig. 10
// (YARN) and the node-churn extension (simulator under failures) — at the
// Default scale and requires each to appear verbatim in the checked-in
// report_default.txt. The full report is regenerated and compared by CI;
// this is the subset fast enough for every test run.
func TestGoldenReportTables(t *testing.T) {
	golden, err := os.ReadFile("../../report_default.txt")
	if err != nil {
		t.Fatal(err)
	}
	o := Default()
	for _, tc := range []struct {
		name string
		run  func(Options) (*metrics.Table, error)
	}{
		{"Fig5", Fig5},
		{"Fig10", Fig10},
		{"ExtNodeChurn", ExtNodeChurn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := tc.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(golden), tb.String()) {
				t.Errorf("%s no longer matches report_default.txt:\n%s", tc.name, tb.String())
			}
		})
	}
}
