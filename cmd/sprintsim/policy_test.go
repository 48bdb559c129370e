package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sprintcon/internal/sim"
)

// TestPolicyRunBits pins every policy policyByName builds to the bit: each
// runs the default scenario (and sgct-v2 and sprintcon also a lagging
// actuator plus a crashed server), and the test hashes the float64 bits of
// every Series channel and every scalar Result field with FNV-64a and
// compares the digests with testdata/policy_bits.txt. Regenerate
// deliberately with:
//
//	go test ./cmd/sprintsim -run PolicyRunBits -update
func TestPolicyRunBits(t *testing.T) {
	fault := []string{"actuator-lag:60:400:0.5:3", "server-crash:200:100:1:5"}
	cases := []struct {
		policy string
		faults []string
	}{
		{"sprintcon", nil},
		{"sprintcon-pi", nil},
		{"nosprint", nil},
		{"sgct", nil},
		{"sgct-v1", nil},
		{"sgct-v2", nil},
		{"sgct-v2", fault},
		{"sprintcon", fault},
	}
	var got strings.Builder
	for _, tc := range cases {
		scn := flagScenario(900, 720, 1)
		var fl faultList
		for _, spec := range tc.faults {
			if err := fl.Set(spec); err != nil {
				t.Fatal(err)
			}
		}
		scn.Faults = fl.plan
		p, err := policyByName(tc.policy, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(scn, p)
		if err != nil {
			t.Fatalf("%s %v: %v", tc.policy, tc.faults, err)
		}
		name := tc.policy
		if len(tc.faults) > 0 {
			name += "+" + strings.Join(tc.faults, "+")
		}
		fmt.Fprintf(&got, "%s %016x\n", name, resultBits(res))
	}

	golden := filepath.Join("testdata", "policy_bits.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("policy run bits diverged from %s:\n got:\n%s\nwant:\n%s", golden, got.String(), want)
	}
}

// resultBits is the FNV-64a digest of the bits of every Series channel
// (DtS included) and every float64, int and bool field of res, in field
// order.
func resultBits(res *sim.Result) uint64 {
	h := fnv.New64a()
	var word [8]byte
	put := func(u uint64) {
		for i := range word {
			word[i] = byte(u >> (8 * i))
		}
		h.Write(word[:])
	}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Kind() {
			case reflect.Float64:
				put(math.Float64bits(f.Float()))
			case reflect.Int:
				put(uint64(f.Int()))
			case reflect.Bool:
				if f.Bool() {
					put(1)
				} else {
					put(0)
				}
			case reflect.Slice:
				if f.Type().Elem().Kind() == reflect.Float64 {
					put(uint64(f.Len()))
					for k := 0; k < f.Len(); k++ {
						put(math.Float64bits(f.Index(k).Float()))
					}
				}
			}
		}
	}
	walk(reflect.ValueOf(res.Series))
	walk(reflect.ValueOf(*res))
	return h.Sum64()
}
