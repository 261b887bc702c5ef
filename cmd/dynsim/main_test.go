package main

import (
	"strings"
	"testing"
)

func TestFlagError(t *testing.T) {
	cases := []struct {
		scale     int
		conf      float64
		faultSeed uint64
		ckptDir   string
		want      string // substring of the message; "" = accepted
	}{
		{2000, 0, 0, "", ""},
		{2000, 0.9, 7, "dir", ""},
		{0, 0, 0, "", "-scale"},
		{-5, 0, 0, "", "-scale"},
		{2000, 1, 0, "", "-conf"},
		{2000, 1.5, 0, "", "-conf"},
		{2000, -0.2, 0, "", "-conf"},
		{2000, 0, 7, "", "-faults"},
	}
	for _, c := range cases {
		got := flagError(c.scale, c.conf, c.faultSeed, c.ckptDir)
		if (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
			t.Errorf("flagError(%d, %v, %d, %q) = %q, want %q", c.scale, c.conf, c.faultSeed, c.ckptDir, got, c.want)
		}
	}
}
