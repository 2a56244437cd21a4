package main

import (
	"testing"

	"github.com/tacktp/tack/internal/transport"
)

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"1048576", 1 << 20, false},
		{"64K", 64 << 10, false},
		{"64k", 64 << 10, false},
		{"100M", 100 << 20, false},
		{"2G", 2 << 30, false},
		{"2g", 2 << 30, false},
		{"", 0, true},
		{"12X", 0, true},
		{"abc", 0, true},
	}
	for _, c := range cases {
		got, err := parseBytes(c.in)
		if (err != nil) != c.err {
			t.Errorf("parseBytes(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("parseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]transport.Mode{
		"legacy": transport.ModeLegacy, "LEGACY": transport.ModeLegacy,
		"tack": transport.ModeTACK, "Tack": transport.ModeTACK,
	} {
		if got, err := parseMode(in); err != nil || got != want {
			t.Errorf("parseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// A typo must not run the other arm under the requested label.
	for _, in := range []string{"legcay", "", "anything-else"} {
		if got, err := parseMode(in); err == nil {
			t.Errorf("parseMode(%q) = %v, want an error naming the accepted values", in, got)
		}
	}
}
