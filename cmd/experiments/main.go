// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all          # every experiment, DESIGN.md order
//	experiments -exp fig5         # one experiment
//	experiments -exp fig6 -plot   # with ASCII series plots
//
// Experiments: fig1 fig2 fig3 fig5 fig6 fig7 fig8a fig8b headline
// ablation-controller ablation-schedule ablation-ups sensitivity qos
// daily-cost faults partition telemetry obs hier all.
//
// -cpuprofile and -memprofile write pprof profiles of the selected
// experiment run (the usual entry point for optimizing the simulator).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"sprintcon/internal/experiments"
	"sprintcon/internal/seriesio"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		exp        = flag.String("exp", "all", "experiment id (see package doc)")
		plot       = flag.Bool("plot", false, "print ASCII sparkline plots for time-series figures")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile after the experiment to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		stop, err := telemetry.StartCPUProfile(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				log.Print(err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := telemetry.WriteHeapProfile(*memProfile); err != nil {
				log.Print(err)
			}
		}()
	}

	if err := run(os.Stdout, *exp, *plot); err != nil {
		log.Fatal(err)
	}
}

// tables maps the experiments that print one table to its constructor.
var tables = map[string]func() (*experiments.Table, error){
	"fig1":                 experiments.Fig1PerWattSpeedup,
	"fig2":                 experiments.Fig2TripCurve,
	"fig3":                 experiments.Fig3PeriodicSprint,
	"fig7":                 experiments.Fig7FrequencyBehavior,
	"fig8a":                experiments.Fig8aTimeUse,
	"fig8b":                experiments.Fig8bDoD,
	"headline":             experiments.Headline,
	"ablation-controller":  experiments.AblationController,
	"ablation-schedule":    experiments.AblationOverloadSchedule,
	"ablation-ups":         experiments.AblationUPSControl,
	"sensitivity":          experiments.Sensitivity,
	"qos":                  experiments.QoSComparison,
	"daily-cost":           experiments.DailyCost,
	"ablation-estimation":  experiments.AblationEstimation,
	"cluster":              experiments.ClusterStagger,
	"battery-provisioning": experiments.BatteryProvisioning,
	"burst-regimes":        experiments.BurstRegimes,
	"efficiency":           experiments.EnergyEfficiency,
	"sprinting-benefit":    experiments.SprintingBenefit,
	"faults":               experiments.FaultMatrix,
	"partition":            experiments.PartitionMatrix,
	"telemetry":            experiments.TelemetrySummary,
	"obs":                  experiments.AlertCoverage,
	"hier":                 experiments.HierarchyExceedance,
}

// run writes experiment exp's output to w: its tables and, with plot, the
// ASCII series plots of the time-series figures.
func run(w io.Writer, exp string, plot bool) error {
	switch exp {
	case "all":
		all, err := experiments.All()
		if err != nil {
			return err
		}
		for _, t := range all {
			t.Fprint(w)
		}
	case "fig5":
		t, res, err := experiments.Fig5Uncontrolled()
		if err != nil {
			return err
		}
		t.Fprint(w)
		if plot {
			plotSeries(w, res)
		}
	case "fig6":
		t, all, err := experiments.Fig6PowerBehavior()
		if err != nil {
			return err
		}
		t.Fprint(w)
		if plot {
			for _, name := range []string{"SprintCon", "SGCT-V1", "SGCT-V2"} {
				fmt.Fprintf(w, "--- %s ---\n", name)
				plotSeries(w, all[name])
			}
		}
	default:
		ctor, ok := tables[exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q", exp)
		}
		t, err := ctor()
		if err != nil {
			return err
		}
		t.Fprint(w)
	}
	return nil
}

func plotSeries(w io.Writer, res *sim.Result) {
	const width = 90
	s := &res.Series
	fmt.Fprintln(w, seriesio.PlotRow("total", s.TotalW, width, "W"))
	fmt.Fprintln(w, seriesio.PlotRow("cb", s.CBW, width, "W"))
	fmt.Fprintln(w, seriesio.PlotRow("cb budget", s.PCbW, width, "W"))
	fmt.Fprintln(w, seriesio.PlotRow("ups", s.UPSW, width, "W"))
	fmt.Fprintln(w, seriesio.PlotRow("freq inter", s.FreqInter, width, "norm"))
	fmt.Fprintln(w, seriesio.PlotRow("freq batch", s.FreqBatch, width, "norm"))
	fmt.Fprintln(w, seriesio.PlotRow("ups soc", s.SoC, width, "frac"))
	fmt.Fprintln(w)
}
