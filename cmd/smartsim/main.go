// Command smartsim is the SMARTSim equivalent: a sampling
// microarchitecture simulator. It runs one workload of the synthetic
// suite under a chosen machine configuration and sampling plan and
// prints the CPI and EPI estimates with their confidence, or — with
// -procedure — executes the paper's full two-step estimation procedure,
// the way to ask for a ±eps confidence interval. With -experiment it
// instead regenerates the paper's evaluation artifacts (Figures 2-8,
// Tables 4-6) at a chosen scale. It is a thin shell over the sim
// service API (sim.Open / Session.Run).
//
// Usage:
//
//	smartsim -bench gccx -config 8-way -n 400
//	smartsim -bench mcfx -u 1000 -w 2000 -warming functional -n 1000
//	smartsim -bench ammpx -procedure -eps 0.03
//	smartsim -bench gccx -n 2000 -parallel -1                      # engine across all cores
//	smartsim -bench gccx -n 2000 -parallel -1 -ckpt-dir ~/.smarts  # sweep saved; reruns skip it
//	smartsim -experiment fig6 -config 8-way -scale small
//	smartsim -experiment all -scale tiny
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/sim"
	"repro/sim/simflag"
)

func main() {
	var (
		workload  = simflag.RegisterWorkload(flag.CommandLine)
		machine   = simflag.RegisterMachine(flag.CommandLine)
		plan      = simflag.RegisterPlan(flag.CommandLine)
		engine    = simflag.RegisterEngine(flag.CommandLine)
		procedure = flag.Bool("procedure", false, "run the full two-step procedure")
		eps       = flag.Float64("eps", 0.03, "target relative confidence interval")
		exp       = flag.String("experiment", "", "regenerate a paper artifact instead of one run: fig2..fig8, table4..table6, or 'all'")
		scale     = flag.String("scale", "small", "experiment scale: tiny, small, or medium")
	)
	flag.Parse()
	if err := checkMode(*exp != ""); err != nil {
		fatal(err)
	}

	if workload.ListAndExit() {
		return
	}
	cfg, err := machine.Config()
	if err != nil {
		fatal(err)
	}

	sess, err := sim.Open(engine.SessionOptions("smartsim")...)
	if err != nil {
		fatal(err)
	}
	defer sess.Close()
	defer simflag.ReportStore(sess)

	if *exp != "" {
		experiments(sess, *exp, *scale, cfg, engine)
		return
	}

	req := sim.NewRequest(*workload.Bench, sim.Machine(cfg), sim.Length(*workload.Length))
	if err := plan.Apply(req); err != nil {
		fatal(err)
	}
	engine.Apply(req)
	if *procedure {
		req.Procedure = &sim.ProcedureSpec{Eps: *eps}
	}

	prog, err := sess.Workload(req.Workload, req.Length)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload %s: %d instructions, %d sampling units of %d\n",
		prog.Name, prog.Length, prog.Length/req.U, req.U)

	rep, err := sess.Run(context.Background(), req)
	if err != nil {
		fatal(err)
	}

	if pr := rep.Procedure; pr != nil {
		fmt.Printf("initial run  (n=%d): CPI %v\n", pr.Initial.CPISample().N(), pr.InitialCPI)
		if pr.Tuned != nil {
			fmt.Printf("tuned run  (n=%d): CPI %v\n", pr.Tuned.CPISample().N(), pr.TunedCPI)
		} else {
			fmt.Println("initial run met the confidence target; no second run needed")
		}
		report(rep)
		return
	}
	res := rep.Result()
	fmt.Printf("plan: U=%d W=%d k=%d j=%d warming=%v parallel=%d\n",
		res.Plan.U, res.Plan.W, res.Plan.K, res.Plan.J, res.Plan.Warming, *engine.Parallel)
	report(rep)
}

// checkMode rejects set flags that the chosen mode would ignore: an
// experiment picks its own workloads and plans, so the single-run flags
// do not apply to it, and -scale applies to nothing else.
func checkMode(experiment bool) error {
	var ignored []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "bench", "length", "list", "u", "w", "n", "j", "warming", "procedure", "eps":
			if experiment {
				ignored = append(ignored, "-"+f.Name)
			}
		case "scale":
			if !experiment {
				ignored = append(ignored, "-"+f.Name)
			}
		}
	})
	switch {
	case len(ignored) == 0:
		return nil
	case experiment:
		return fmt.Errorf("%s: not used with -experiment", strings.Join(ignored, ", "))
	default:
		return fmt.Errorf("%s: used only with -experiment", strings.Join(ignored, ", "))
	}
}

// experiments runs the named experiment, or every one for "all",
// streaming each artifact's rows to stdout.
func experiments(sess *sim.Session, exp, scale string, cfg sim.Config, engine *simflag.Engine) {
	names := []string{exp}
	if exp == "all" {
		names = sim.ExperimentNames()
	}
	for _, name := range names {
		start := time.Now()
		fmt.Printf("==== %s (scale %s) ====\n", name, scale)
		req := sim.NewExperiment(name, sim.AtScale(scale), sim.Machine(cfg), sim.StreamTo(os.Stdout))
		engine.Apply(req)
		if _, err := sess.Run(context.Background(), req); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

func report(rep *sim.Report) {
	res := rep.Result()
	cpi := res.CPIEstimate(sim.Alpha997)
	epi := res.EPIEstimate(sim.Alpha997)
	fmt.Printf("CPI estimate: %v\n", cpi)
	fmt.Printf("EPI estimate: %v nJ\n", epi)
	fmt.Printf("instructions: %d measured, %d detailed warming, %d fast-forwarded\n",
		res.MeasuredInsts, res.WarmingInsts, res.FastFwdInsts)
	if res.SweepCached {
		fmt.Printf("time: %v detailed (functional sweep skipped: launch states loaded from the checkpoint store)\n",
			res.DetailedTime.Round(1e6))
		return
	}
	fmt.Printf("time: %v fast-forward, %v detailed\n",
		res.FastFwdTime.Round(1e6), res.DetailedTime.Round(1e6))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smartsim:", err)
	os.Exit(1)
}
