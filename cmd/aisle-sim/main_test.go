package main

import (
	"strings"
	"testing"

	"github.com/aisle-sim/aisle"
)

func TestParseScenarioRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name, from, to, want string
	}{
		{"no sites", `"sites": ["ornl", "anl"]`, `"sites": []`, "no sites"},
		{"duplicate site", `"sites": ["ornl", "anl"]`, `"sites": ["a", "a"]`, `duplicate site "a"`},
		{"negative budget", `"budget": 30`, `"budget": -1`, "budget -1"},
	} {
		raw := strings.Replace(exampleScenario, tc.from, tc.to, 1)
		if raw == exampleScenario {
			t.Fatalf("%s: %q not found in the example scenario", tc.name, tc.from)
		}
		_, err := parseScenario([]byte(raw))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := parseScenario([]byte(exampleScenario)); err != nil {
		t.Fatalf("example scenario rejected: %v", err)
	}
}

// FuzzParseScenario holds the decoder to its contract: it never panics,
// and every scenario it accepts assembles into a federation.
func FuzzParseScenario(f *testing.F) {
	f.Add([]byte(exampleScenario))
	f.Fuzz(func(t *testing.T, raw []byte) {
		sc, err := parseScenario(raw)
		if err != nil {
			return
		}
		sites := make([]aisle.SiteID, len(sc.Sites))
		for i, s := range sc.Sites {
			sites[i] = aisle.SiteID(s)
		}
		n := aisle.New(aisle.Config{Seed: sc.Seed, Sites: sites, Link: aisle.DefaultLink(),
			ZeroTrust: sc.ZeroTrust, SharedKnowledge: sc.SharedKnowledge})
		n.Stop()
	})
}
