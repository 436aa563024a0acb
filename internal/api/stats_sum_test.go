package api

import (
	"reflect"
	"testing"
)

// perProcess are the Stats fields (*Stats).Add leaves alone: each describes
// the one process that serves the document, so the gateway reports its own
// and the backends' stay visible under gateway.backend_stats[].stats.
var perProcess = map[string]bool{
	"Gateway":    true, // the routing tier's own block
	"Admission":  true, // each front door's own limiter
	"FaultFires": true, // each process's own armed schedule
}

// TestFleetSumCoversEveryCounter: every numeric leaf of a Stats document is
// set to 1 by reflection and folded into an empty document twice; every one
// must read 2 in the sum except the stated per-process blocks, which Add
// must not touch. A counter added to any of the blocks later fails here
// until Add sums it (or it is listed above with its reason).
func TestFleetSumCoversEveryCounter(t *testing.T) {
	var one Stats
	fill(reflect.ValueOf(&one).Elem())
	var sum Stats
	sum.Add(&one)
	sum.Add(&one)

	v := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if perProcess[name] {
			if !v.Field(i).IsZero() {
				t.Errorf("Add touched per-process field %s: %v", name, v.Field(i))
			}
			continue
		}
		expectTwos(t, name, v.Field(i))
	}
	if !sum.PersistDegraded || sum.PersistError != one.PersistError {
		t.Errorf("persist failure not carried: degraded=%v error=%q", sum.PersistDegraded, sum.PersistError)
	}
}

// fill sets every numeric leaf under v to 1, allocating struct pointers and
// giving strings, bools and the fault map a non-zero value. Gateway is left
// nil: its backend_stats nest whole Stats documents.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Float64:
		v.SetFloat(1)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	case reflect.Map:
		v.Set(reflect.ValueOf(map[string]int64{"site:action": 1}))
	case reflect.Ptr:
		if v.Type() == reflect.TypeOf((*GatewayStats)(nil)) {
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i))
		}
	default:
		panic("api.Stats grew a field kind this test does not fill: " + v.Kind().String())
	}
}

// expectTwos fails for every numeric leaf under v that is not 2.
func expectTwos(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		if v.Int() != 2 {
			t.Errorf("%s = %d after adding 1 twice: Add does not sum it", path, v.Int())
		}
	case reflect.Float64:
		if v.Float() != 2 {
			t.Errorf("%s = %v after adding 1 twice: Add does not sum it", path, v.Float())
		}
	case reflect.Ptr:
		if v.IsNil() {
			t.Errorf("%s is nil in the sum: Add dropped the block", path)
			return
		}
		expectTwos(t, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			expectTwos(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	}
}
