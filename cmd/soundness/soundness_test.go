package main

import (
	"strings"
	"testing"
)

// TestSoundnessCampaign runs the optimizer soundness campaign at its fixed
// seed: 500 random programs, 100 under -short. A divergence fails the test
// with the campaign's reproducer.
func TestSoundnessCampaign(t *testing.T) {
	trials := 500
	if testing.Short() {
		trials = 100
	}
	var out strings.Builder
	if fails := campaign(trials, defaultSeed, &out); fails > 0 {
		t.Fatalf("%d of %d trials diverged:\n%s", fails, trials, out.String())
	}
}
