package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestFlagError(t *testing.T) {
	cases := []struct {
		scale int
		conf  float64
		want  string // substring of the message; "" = accepted
	}{
		{2000, 0, ""},
		{2000, 0.9, ""},
		{0, 0, "-scale"},
		{-5, 0, "-scale"},
		{2000, 1, "-conf"},
		{2000, 1.5, "-conf"},
		{2000, -0.2, "-conf"},
	}
	for _, c := range cases {
		got := flagError(c.scale, c.conf)
		if (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
			t.Errorf("flagError(%d, %v) = %q, want %q", c.scale, c.conf, got, c.want)
		}
	}
}

// TestMain runs the command itself when a test re-executes the test
// binary with DYNSIM_AS_MAIN set, so a test can observe main's output
// and exit code.
func TestMain(m *testing.M) {
	if os.Getenv("DYNSIM_AS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A -timeout deadline covers the policy and its baseline. Whichever of
// the two it cuts short, the run prints no result and exits 130; a
// deadline landing in the baseline must not report a partial full-timing
// IPC. A run that beats the deadline reports the true baseline.
func TestTimeoutCutsBaseline(t *testing.T) {
	for _, timeout := range []string{"300ms", "600ms", "900ms"} {
		cmd := exec.Command(os.Args[0], "-bench", "mcf", "-policy", "dynamic", "-scale", "2000", "-baseline", "-timeout", timeout)
		cmd.Env = append(os.Environ(), "DYNSIM_AS_MAIN=1")
		out, err := cmd.Output()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		switch {
		case code == 130:
			if bytes.Contains(out, []byte("full-timing IPC")) || bytes.Contains(out, []byte("accuracy error")) {
				t.Errorf("-timeout %s: exit 130 but reported a baseline:\n%s", timeout, out)
			}
		case code == 0:
			if !bytes.Contains(out, []byte("full-timing IPC 0.3906 ")) {
				t.Errorf("-timeout %s: completed run reports the wrong baseline:\n%s", timeout, out)
			}
		default:
			t.Errorf("-timeout %s: exit %d, want 130 or 0:\n%s", timeout, code, out)
		}
	}
}
