package workload

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// testFrontendConfig is a scaled-down frontend for the unit gates: same
// shape as the default (skew, burst, shared+anon pages), ~300 jobs.
func testFrontendConfig() FrontendConfig {
	cfg := DefaultFrontend()
	cfg.Users = 10_000
	cfg.Tenants = 16
	cfg.RatePerSec = 300
	cfg.Duration = 1 * sim.Second
	cfg.BurstAt = 300 * sim.Millisecond
	cfg.BurstLen = 300 * sim.Millisecond
	cfg.JobSharedPages = 2
	cfg.JobAnonPages = 4
	return cfg
}

// TestFrontendArrivalDeterminism checks the open-loop generator itself:
// the same seed must reproduce the identical arrival stream (offered,
// issued, per-tenant mix) run to run, and a different seed must not.
func TestFrontendArrivalDeterminism(t *testing.T) {
	run := func(seed uint64) *FrontendResult {
		h := BootHive(4)
		cfg := testFrontendConfig()
		cfg.Seed = seed
		res, fe := RunFrontend(h, cfg, 60*sim.Second)
		if !res.Done {
			t.Fatalf("frontend did not finish: errs=%v", res.Errors)
		}
		return fe
	}
	a, b := run(0xF12E), run(0xF12E)
	if fmt.Sprintf("%+v", *a) != fmt.Sprintf("%+v", *b) {
		t.Errorf("same seed produced different results:\n%+v\n%+v", *a, *b)
	}
	c := run(0xBEEF)
	if a.Offered == c.Offered && fmt.Sprintf("%v", a.TenantIssued) == fmt.Sprintf("%v", c.TenantIssued) {
		t.Errorf("different seeds produced the identical arrival stream")
	}
}

// TestFrontendZipfTenantMix checks the skew generator: with s=1.2 the
// head tenant must dominate the tail, and the per-tenant counts must
// account for every issued job.
func TestFrontendZipfTenantMix(t *testing.T) {
	h := BootHive(4)
	cfg := testFrontendConfig()
	res, fe := RunFrontend(h, cfg, 60*sim.Second)
	if !res.Done {
		t.Fatalf("frontend did not finish: errs=%v", res.Errors)
	}
	var sum, tail int64
	for k, n := range fe.TenantIssued {
		sum += n
		if k >= cfg.Tenants/2 {
			tail += n
		}
	}
	if sum != int64(fe.Issued) {
		t.Errorf("tenant mix does not account for issued jobs: sum=%d issued=%d", sum, fe.Issued)
	}
	head := fe.TenantIssued[0]
	if head <= tail/4 {
		t.Errorf("Zipf head tenant not dominant: head=%d tail-half=%d", head, tail)
	}
	if head <= fe.TenantIssued[cfg.Tenants-1] {
		t.Errorf("Zipf mix not skewed: tenant0=%d tenant%d=%d",
			head, cfg.Tenants-1, fe.TenantIssued[cfg.Tenants-1])
	}
	if fe.Good == 0 || fe.Good > fe.Completed {
		t.Errorf("goodput accounting broken: good=%d completed=%d", fe.Good, fe.Completed)
	}
	if fe.Latency.N != int64(fe.Completed) {
		t.Errorf("latency histogram holds %d samples, want %d", fe.Latency.N, fe.Completed)
	}
	if fe.Latency.P50 <= 0 || fe.Latency.P999 < fe.Latency.P99 || fe.Latency.P99 < fe.Latency.P50 {
		t.Errorf("latency quantiles not monotone: %+v", fe.Latency)
	}
}
