package hostcost

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestModeCostOrdering(t *testing.T) {
	c := DefaultCosts()
	order := []Mode{Fast, Event, BBVProfile, FuncWarm, DetailWarm}
	for i := 1; i < len(order); i++ {
		if c.PerInstr[order[i]] <= c.PerInstr[order[i-1]] {
			t.Errorf("cost(%v)=%v must exceed cost(%v)=%v",
				order[i], c.PerInstr[order[i]], order[i-1], c.PerInstr[order[i-1]])
		}
	}
	if c.PerInstr[Timing] != c.PerInstr[DetailWarm] {
		t.Error("timed and detailed-warm instructions cost the same host work")
	}
}

func TestPaperAnchors(t *testing.T) {
	c := DefaultCosts()
	// SMARTS structure: 97% functional warming, 2% detailed warming,
	// 1% detailed => ~7.4x over full timing (paper Figure 5).
	smarts := 0.97*c.PerInstr[FuncWarm] + 0.03*c.PerInstr[Timing]
	speedup := c.PerInstr[Timing] / smarts
	if speedup < 6 || speedup > 9 {
		t.Errorf("SMARTS modelled speedup %.1fx, want ~7.4x", speedup)
	}
	// Full timing of a 240G benchmark ~ 10-14 days (paper: parser takes
	// 14 days).
	days := 240e9 * c.PerInstr[Timing] * c.NsPerUnit / 1e9 / 86400
	if days < 7 || days > 16 {
		t.Errorf("full timing of 240G instructions = %.1f days, want ~11", days)
	}
}

func TestMeterAccounting(t *testing.T) {
	m := NewMeter(DefaultCosts())
	m.Charge(Fast, 1000)
	m.Charge(Timing, 10)
	m.ChargeSwitch()
	m.ChargeRestore()
	m.ChargeUnits(5)
	r := m.Report(1)
	want := 1000*1 + 10*600.0 + DefaultCosts().SwitchOverhead + DefaultCosts().RestoreOverhead + 5
	if r.Units != want {
		t.Fatalf("units = %v, want %v", r.Units, want)
	}
	if r.Switches != 1 || r.Restores != 1 {
		t.Fatalf("switches=%d restores=%d", r.Switches, r.Restores)
	}
	total := uint64(0)
	for _, n := range r.Instrs {
		total += n
	}
	if total != 1010 {
		t.Fatalf("total instrs = %d", total)
	}
	if r.Instrs[Fast] != 1000 || r.Instrs[Timing] != 10 {
		t.Fatal("per-mode instruction counts wrong")
	}
}

func TestMonotonicity(t *testing.T) {
	f := func(n1, n2 uint16) bool {
		m := NewMeter(DefaultCosts())
		m.Charge(Event, uint64(n1))
		u1 := m.Units()
		m.Charge(Event, uint64(n2))
		return m.Units() >= u1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaleExtrapolation(t *testing.T) {
	m := NewMeter(DefaultCosts())
	m.Charge(Timing, 1_000_000)
	r1 := m.Report(1)
	r1000 := m.Report(1000)
	if r1000.PaperSeconds != r1.Seconds*1000 {
		t.Fatal("paper-equivalent time must scale linearly")
	}
	if r1.Seconds != r1.PaperSeconds {
		t.Fatal("scale 1 must be the identity")
	}
}

// fillReport sets every numeric leaf of a Report to v, walking the
// struct with reflect; a field of a kind the walk does not know fails
// the test, so Report cannot grow a field Add's test does not reach.
func fillReport(t *testing.T, v uint64) Report {
	t.Helper()
	var r Report
	var fill func(f reflect.Value, path string)
	fill = func(f reflect.Value, path string) {
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(float64(v))
		case reflect.Uint64:
			f.SetUint(v)
		case reflect.Array:
			for i := 0; i < f.Len(); i++ {
				fill(f.Index(i), path)
			}
		case reflect.Struct:
			for i := 0; i < f.NumField(); i++ {
				fill(f.Field(i), path+"."+f.Type().Field(i).Name)
			}
		default:
			t.Fatalf("Report%s has kind %v: teach Add and this walk about it", path, f.Kind())
		}
	}
	fill(reflect.ValueOf(&r).Elem(), "")
	return r
}

func TestReportAddCoversEveryField(t *testing.T) {
	cases := []struct{ a, b uint64 }{{1, 2}, {0, 5}, {7, 0}, {3, 3}}
	for _, c := range cases {
		got := fillReport(t, c.a).Add(fillReport(t, c.b))
		if want := fillReport(t, c.a+c.b); !reflect.DeepEqual(got, want) {
			t.Errorf("Add(%d, %d) left a field out:\n got  %+v\n want %+v", c.a, c.b, got, want)
		}
	}
}

func TestChargeUnitsIgnoresNegative(t *testing.T) {
	m := NewMeter(DefaultCosts())
	m.ChargeUnits(-5)
	if m.Units() != 0 {
		t.Fatal("negative charges must be ignored")
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[float64]string{
		86400 * 6.2: "6.2 d",
		3600 * 2.5:  "2.5 h",
		90:          "1.5 min",
		12.3:        "12.3 s",
	}
	for secs, want := range cases {
		if got := FormatDuration(secs); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", secs, got, want)
		}
	}
	if got := FormatDuration(0.001); !strings.Contains(got, "ms") {
		t.Errorf("sub-second formatting = %q", got)
	}
}

func TestModeStrings(t *testing.T) {
	for m := Mode(0); int(m) < NumModes; m++ {
		if strings.HasPrefix(m.String(), "mode(") {
			t.Errorf("mode %d unnamed", m)
		}
	}
}
