package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

// TestResolve covers mode resolution and flag validation: the mode each
// command line runs in and the settings it implies, or that it is refused
// (main exits 2).
func TestResolve(t *testing.T) {
	const small = "-queries 20 -n 500 "
	for _, tc := range []struct {
		args    string
		refused bool
		check   func(*invocation) bool
	}{
		{args: small, check: func(inv *invocation) bool {
			return inv.chaos == nil && inv.failover == nil && !inv.cfg.RetryTransport &&
				inv.cfg.WaitReady == 0 && inv.cfg.WriteEvery == 0 && len(inv.cfg.Queries) == 20
		}},
		// Failover needs both command lines.
		{args: small + "-failover-leader serve", refused: true},
		{args: small + "-failover-follower serve", refused: true},
		{args: small + "-failover-leader a -failover-follower b -follower-addr http://f:1 -failover-writes 7",
			check: func(inv *invocation) bool {
				f := inv.failover
				return f != nil && inv.chaos == nil && f.LeaderURL == inv.cfg.BaseURL &&
					f.FollowerURL == "http://f:1" && f.AckWrites == 7 &&
					strings.Join(f.LeaderCommand, " ") == "a" && strings.Join(f.FollowerCommand, " ") == "b"
			}},
		// -chaos implies transport retries and a 30 s wait; an explicit
		// -wait is kept.
		{args: small + "-chaos serve -chaos-kills 5", check: func(inv *invocation) bool {
			return inv.chaos != nil && inv.chaos.Kills == 5 && inv.cfg.RetryTransport &&
				inv.cfg.WaitReady == 30*time.Second
		}},
		{args: small + "-chaos serve -wait 3s", check: func(inv *invocation) bool {
			return inv.cfg.RetryTransport && inv.cfg.WaitReady == 3*time.Second
		}},
		{args: small + "-wait 3s", check: func(inv *invocation) bool {
			return !inv.cfg.RetryTransport && inv.cfg.WaitReady == 3*time.Second
		}},
		// -audit-visibility asks for write cycles every 25 queries unless
		// write traffic was requested.
		{args: small + "-audit-visibility", check: func(inv *invocation) bool {
			return inv.cfg.AuditVisibility && inv.cfg.WriteEvery == 25
		}},
		{args: small + "-audit-visibility -write-every 3", check: func(inv *invocation) bool {
			return inv.cfg.WriteEvery == 3
		}},
		{args: small + "-audit-visibility -writers 2", check: func(inv *invocation) bool {
			return inv.cfg.WriteEvery == 0 && inv.cfg.Writers == 2
		}},
		{args: small + "-readers 3 -clients 9", check: func(inv *invocation) bool {
			return inv.cfg.Clients == 3
		}},
		{args: small + "-oracle", check: func(inv *invocation) bool {
			return inv.cfg.Oracle != nil && inv.scrape
		}},
		{args: small + "-check-metrics", check: func(inv *invocation) bool {
			return inv.cfg.Oracle == nil && inv.scrape
		}},
		{args: small + "-workload clustered -dataset neuro", check: func(inv *invocation) bool {
			return len(inv.cfg.Queries) == 20
		}},
		// Unknown names and flags are refused.
		{args: small + "-dataset nosuch", refused: true},
		{args: small + "-workload nosuch", refused: true},
		{args: small + "-nosuchflag", refused: true},
	} {
		fs := flag.NewFlagSet("quasii-loadgen", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		inv, err := resolve(fs, strings.Fields(tc.args))
		if tc.refused {
			if err == nil {
				t.Errorf("%q: resolved, want refused", tc.args)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: refused: %v", tc.args, err)
			continue
		}
		if !tc.check(inv) {
			t.Errorf("%q: resolved to %+v", tc.args, inv)
		}
	}
}
