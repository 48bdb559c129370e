package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// runSpec.config mirrors sprintd's RunSpec.config, which the benchmark
// cannot import. This test holds the two together: it builds sprintd,
// serves a tiny linked and a tiny sweep spec through it, and requires each
// summary to pass the benchmark's correctness check against the
// in-process replay built from runSpec.config.
func TestConfigMirrorMatchesService(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts sprintd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "sprintd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/sprintd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build sprintd: %v\n%s", err, out)
	}
	ctx := context.Background()
	svc, _, err := launch(ctx, bin, filepath.Join(dir, "state"), -1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := svc.stop(); err != nil {
			t.Error(err)
		}
	}()

	plateau := plateauScenario(120)
	for _, spec := range []runSpec{
		{Mode: "linked", Rows: 1, RacksPerRow: 2, DurationS: 60, Seed: 3, LinkSeed: 3},
		{Mode: "sweep", Rows: 2, RacksPerRow: 2, Seed: 5, Scenario: plateau},
	} {
		o := &runObs{spec: spec}
		svc.drive(ctx, o, 5*time.Millisecond)
		if o.err == nil {
			o.err = svc.collect(ctx, o, filepath.Join(dir, "state"))
		}
		if o.err != nil {
			t.Fatalf("%s run: %v", spec.Mode, o.err)
		}
		cfg, err := spec.config()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := replayBare(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range check(o, ref, cfg) {
			t.Errorf("%s run: %s", spec.Mode, m)
		}
	}
}
