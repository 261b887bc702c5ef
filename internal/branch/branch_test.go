package branch

import (
	"strings"
	"testing"
)

func TestBiasedBranchConverges(t *testing.T) {
	p := New(Config{})
	// Always-taken branch: after warm-up, zero mispredictions.
	for i := 0; i < 100; i++ {
		p.OnBranch(0x1000, true)
	}
	before := p.Stats().DirMispred
	for i := 0; i < 1000; i++ {
		p.OnBranch(0x1000, true)
	}
	if got := p.Stats().DirMispred - before; got != 0 {
		t.Fatalf("%d mispredictions on an always-taken branch after warm-up", got)
	}
}

func TestAlternatingPatternLearned(t *testing.T) {
	// Gshare with global history learns a strict alternation.
	p := New(Config{})
	taken := false
	for i := 0; i < 2000; i++ {
		p.OnBranch(0x2000, taken)
		taken = !taken
	}
	before := p.Stats().DirMispred
	for i := 0; i < 1000; i++ {
		p.OnBranch(0x2000, taken)
		taken = !taken
	}
	if got := p.Stats().DirMispred - before; got > 10 {
		t.Fatalf("alternating pattern not learned: %d/1000 mispredictions", got)
	}
}

func TestColdPredictsNotTaken(t *testing.T) {
	p := New(Config{})
	if mis := p.OnBranch(0x3000, false); mis {
		t.Fatal("cold counters must predict not-taken")
	}
	if mis := p.OnBranch(0x3008, true); !mis {
		t.Fatal("cold counters mispredict a taken branch")
	}
}

func TestMispredRateBounded(t *testing.T) {
	p := New(Config{})
	// Pseudo-random stream: misprediction rate must be near 50%, and
	// never pathological.
	x := uint64(0x123456789)
	for i := 0; i < 50000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		p.OnBranch(0x4000, x>>63 == 1)
	}
	st := p.Stats()
	r := float64(st.DirMispred) / float64(st.Branches)
	if r < 0.35 || r > 0.65 {
		t.Fatalf("random-stream misprediction rate %.2f outside [0.35, 0.65]", r)
	}
}

func TestBTBTargets(t *testing.T) {
	p := New(Config{})
	if !p.OnTarget(0x5000, 0x6000) {
		t.Fatal("cold BTB must mispredict")
	}
	if p.OnTarget(0x5000, 0x6000) {
		t.Fatal("repeated target must hit")
	}
	if !p.OnTarget(0x5000, 0x7000) {
		t.Fatal("changed target must mispredict")
	}
	st := p.Stats()
	if st.TargetPred != 3 || st.TargetMiss != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRASMatchedCalls(t *testing.T) {
	p := New(Config{})
	// Nested call/return, within RAS depth: all returns predicted.
	var addrs []uint64
	for i := uint64(0); i < 8; i++ {
		ra := 0x1000 + i*64
		p.OnCall(ra)
		addrs = append(addrs, ra)
	}
	for i := len(addrs) - 1; i >= 0; i-- {
		if p.OnReturn(addrs[i]) {
			t.Fatalf("return %d mispredicted", i)
		}
	}
	if p.Stats().ReturnMiss != 0 {
		t.Fatal("no return should miss within RAS depth")
	}
}

func TestRASOverflow(t *testing.T) {
	p := New(Config{RASEntries: 4})
	var addrs []uint64
	for i := uint64(0); i < 8; i++ { // deeper than the stack
		ra := 0x2000 + i*64
		p.OnCall(ra)
		addrs = append(addrs, ra)
	}
	misses := 0
	for i := len(addrs) - 1; i >= 0; i-- {
		if p.OnReturn(addrs[i]) {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("overflowed RAS must mispredict some returns")
	}
	// The innermost 4 must still predict correctly.
	p2 := New(Config{RASEntries: 4})
	for i := uint64(0); i < 8; i++ {
		p2.OnCall(0x2000 + i*64)
	}
	for i := 7; i >= 4; i-- {
		if p2.OnReturn(0x2000 + uint64(i)*64) {
			t.Fatalf("innermost return %d must predict", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		p := New(Config{})
		x := uint64(7)
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1
			p.OnBranch(uint64(i%64)*8, x>>62 == 0)
			if i%97 == 0 {
				p.OnCall(uint64(i))
				p.OnReturn(uint64(i))
			}
		}
		return p.Stats()
	}
	if run() != run() {
		t.Fatal("predictor must be deterministic")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two table must panic")
		}
	}()
	New(Config{GshareEntries: 1000})
}

// TestDigestPinsPredictorState: equal streams give equal digests, and
// each component of the state — counters, history, BTB, RAS contents,
// RAS top, statistics — moves the digest on its own.
func TestDigestPinsPredictorState(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	if a.Digest() != b.Digest() {
		t.Fatal("fresh identical predictors have different digests")
	}
	feed := func(p *Predictor) {
		for i := uint64(0); i < 500; i++ {
			p.OnBranch(0x1000+i%7*8, i%3 == 0)
			if i%11 == 0 {
				p.OnCall(0x2000 + i*8)
				p.OnTarget(0x3000+i%5*8, 0x4000+i%2*64)
			}
			if i%13 == 0 {
				p.OnReturn(0x2000 + i*8)
			}
		}
	}
	feed(a)
	feed(b)
	if a.Digest() != b.Digest() {
		t.Fatal("identical streams produced different digests")
	}
	base := a.Digest()
	for name, mutate := range map[string]func(p *Predictor){
		"counter":    func(p *Predictor) { p.counters[5] ^= 1 },
		"history":    func(p *Predictor) { p.history ^= 1 },
		"btb tag":    func(p *Predictor) { p.btbTags[9]++ },
		"btb target": func(p *Predictor) { p.btbTargets[9]++ },
		"ras entry":  func(p *Predictor) { p.ras[3]++ },
		"ras top":    func(p *Predictor) { p.rasTop = (p.rasTop + 1) % len(p.ras) },
		"stats":      func(p *Predictor) { p.stats.Returns++ },
	} {
		p := New(Config{})
		feed(p)
		mutate(p)
		if p.Digest() == base {
			t.Errorf("digest blind to %s", name)
		}
	}
}

// TestRASWrapMatchesModulo checks the stack pointer against the modular
// definition — top = (top ± 1) mod depth — through long unbalanced
// call/return runs that wrap in both directions, for depths that are
// and are not powers of two.
func TestRASWrapMatchesModulo(t *testing.T) {
	for _, depth := range []int{1, 3, 16} {
		p := New(Config{RASEntries: depth})
		ref := make([]uint64, depth)
		top := 0
		x := uint64(depth)
		for i := 0; i < 5000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			// Runs of calls, then runs of returns, lengths up to 40.
			if (x>>40)%80 < 40 == (i/50%2 == 0) {
				ra := x >> 8
				p.OnCall(ra)
				ref[top] = ra
				top = (top + 1) % depth
			} else {
				top = (top - 1 + depth) % depth
				want := ref[top]
				if x&1 == 0 {
					want++ // a return that must mispredict
				}
				if got := p.OnReturn(want); got != (want != ref[top]) {
					t.Fatalf("depth %d step %d: mispredicted=%v, want %v", depth, i, got, want != ref[top])
				}
			}
			if p.rasTop != top {
				t.Fatalf("depth %d step %d: rasTop %d, want %d", depth, i, p.rasTop, top)
			}
		}
	}
}

// TestNewRejectsBadConfig: negative sizes and non-power-of-two tables
// panic in New, naming the field; zero still means the Table 1 default.
func TestNewRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"GshareEntries", Config{GshareEntries: -16}},
		{"GshareEntries", Config{GshareEntries: 1000}},
		{"HistoryBits", Config{HistoryBits: -1}},
		{"BTBEntries", Config{BTBEntries: -2}},
		{"BTBEntries", Config{BTBEntries: 48}},
		{"RASEntries", Config{RASEntries: -1}},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.field) {
					t.Errorf("%+v: panic %q does not name %s", tc.cfg, msg, tc.field)
				}
			}()
			New(tc.cfg)
		}()
	}
	if p := New(Config{}); len(p.ras) != Default().RASEntries {
		t.Fatalf("zero RASEntries gave a %d-entry stack, want the default %d", len(p.ras), Default().RASEntries)
	}
}
