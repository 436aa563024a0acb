package faultinject

import (
	"math"
	"testing"
)

// FuzzFaultSchedule throws arbitrary specs at the schedule grammar. The
// contract under fuzz: Parse never panics, and every rule it accepts is
// one the injector can act on — a known site and an action valid there,
// a probability in (0,1], a torn fraction in (0,1) (or none: Prefix then
// tears at half), a hang duration > 0, a fire cap > 0 when one is given —
// so a torn write always lands a strict prefix.
func FuzzFaultSchedule(f *testing.F) {
	for _, spec := range []string{
		"seed=42; store.write:torn:0.25@0.5#3 ;transport:hang:150ms@0.1;handler:panic#1;fetch.body:corrupt",
		"seed=7;store.read:err@0.3",
		"store.write:torn",
		"store.read:err@NaN",
		"store.write:torn:NaN",
		"store.write:torn:1e-320",
		"transport:hang:1ns#9223372036854775807",
		"store.write:err#0",
		"seed=x;store.write:err",
		"",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		inj, err := Parse(spec)
		if err != nil {
			return
		}
		if len(inj.rules) == 0 {
			t.Fatalf("Parse(%q) accepted a schedule with no rules", spec)
		}
		for _, r := range inj.rules {
			if !containsAction(actionsBySite[r.site], r.action) {
				t.Fatalf("Parse(%q): action %s accepted at site %q", spec, r.action, r.site)
			}
			if !(r.prob > 0 && r.prob <= 1) {
				t.Fatalf("Parse(%q): probability %v outside (0,1]", spec, r.prob)
			}
			if r.max < 0 {
				t.Fatalf("Parse(%q): fire cap %d (0 means none; a given cap is > 0)", spec, r.max)
			}
			switch r.action {
			case ActTorn:
				if r.frac != 0 && !(r.frac > 0 && r.frac < 1) {
					t.Fatalf("Parse(%q): torn fraction %v outside (0,1)", spec, r.frac)
				}
				fault := Fault{frac: r.frac}
				for _, n := range []int{1, 2, 7, 4096, math.MaxInt32} {
					if p := fault.Prefix(n); p < 0 || p >= n {
						t.Fatalf("Parse(%q): torn write of %d bytes lands %d", spec, n, p)
					}
				}
			case ActHang:
				if r.dur <= 0 {
					t.Fatalf("Parse(%q): hang duration %v", spec, r.dur)
				}
			default:
				if r.frac != 0 || r.dur != 0 {
					t.Fatalf("Parse(%q): action %s carries a parameter (%v, %v)", spec, r.action, r.frac, r.dur)
				}
			}
		}
	})
}
