package check

import (
	"flag"
	"strconv"
	"strings"
	"testing"
)

// -sweep-workers narrows the worker-count matrix (comma-separated), so
// CI can shard the equivalence harness per worker count.
var sweepWorkers = flag.String("sweep-workers", "", "comma-separated worker counts for TestSweepEquivalence (default 2,4)")

// TestSweepEquivalence is the distributed-sweep pin: across worker
// counts and injector seeds covering mid-lease worker kills and remote
// checkpoint-tier outages, the merged journal and the
// rendered artifacts must be byte-identical to the sequential
// single-process run, with exactly-once cell accounting.
func TestSweepEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-equivalence matrix is slow; skipped in -short")
	}
	var o SweepOptions
	if *sweepWorkers != "" {
		for _, s := range strings.Split(*sweepWorkers, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || w < 1 {
				t.Fatalf("bad -sweep-workers entry %q", s)
			}
			o.Workers = append(o.Workers, w)
		}
	}
	if err := SweepEquivalence(o); err != nil {
		t.Fatal(err)
	}
}
