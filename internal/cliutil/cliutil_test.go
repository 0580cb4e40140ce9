package cliutil

import "testing"

func TestFormatBytes(t *testing.T) {
	for in, want := range map[float64]string{0: "0.0B", 999: "999.0B", 1234: "1.2KB", 1.5e6: "1.5MB", 2.5e12: "2.5TB", 4e15: "4000.0TB"} {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%v) = %q, want %q", in, got, want)
		}
	}
}
