// Command fpisa-bench regenerates every table and figure of the paper's
// evaluation. The experiments list below is the index of those artifacts,
// in the order -exp all runs them:
//
//	fpisa-bench -exp all          # everything
//	fpisa-bench -exp table3       # one artifact
//	fpisa-bench -exp fig9 -quick  # reduced-epoch convergence study
//
// Output is plain text in the layout of the corresponding paper artifact,
// with the paper's reference values cited inline where applicable.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fpisa/internal/banzai"
	"fpisa/internal/core"
	"fpisa/internal/gradients"
	"fpisa/internal/payload"
	"fpisa/internal/perfmodel"
	"fpisa/internal/pisa"
	"fpisa/internal/query"
	"fpisa/internal/stats"
	"fpisa/internal/train"
)

// experiments lists the paper artifacts in the order -exp all runs them.
var experiments = []struct {
	name string
	run  func(quick bool, scale int) error
}{
	{"table1", func(bool, int) error { table1(); return nil }},
	{"table2", func(bool, int) error { table2(); return nil }},
	{"table3", func(bool, int) error { return table3() }},
	{"fig6", func(bool, int) error { fig6(); return nil }},
	{"fig7", func(q bool, _ int) error { fig7(q); return nil }},
	{"fig8", func(q bool, _ int) error { return fig8(q) }},
	{"fig9", func(q bool, _ int) error { return fig9(q) }},
	{"fig10", func(bool, int) error { fig10(); return nil }},
	{"fig11", func(bool, int) error { fig11(); return nil }},
	{"fig13", func(_ bool, s int) error { return fig13(s) }},
}

func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

var errUnknownExperiment = errors.New("unknown experiment")

// run executes one experiment, or all of them in order, stopping at the
// first that fails.
func run(exp string, quick bool, scale int) error {
	ran := false
	for _, e := range experiments {
		if exp != "all" && exp != e.name {
			continue
		}
		ran = true
		if err := e.run(quick, scale); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	if !ran {
		return fmt.Errorf("%w %q; choose from %s", errUnknownExperiment, exp, experimentNames())
	}
	return nil
}

func main() {
	exp := flag.String("exp", "all", "experiment: all, "+experimentNames())
	quick := flag.Bool("quick", false, "reduce workload sizes (fig7/fig8/fig9)")
	scale := flag.Int("scale", 1, "dataset scale multiplier for fig13")
	flag.Parse()

	if err := run(*exp, *quick, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "fpisa-bench:", err)
		if errors.Is(err, errUnknownExperiment) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func header(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}

func table1() {
	header("Table 1: ALU / stateful-atom synthesis (FreePDK15-calibrated model)")
	fmt.Print(banzai.FormatTable1(banzai.Table1()))
	def := banzai.DefaultALU().Synthesize(banzai.FreePDK15)
	fp := banzai.FPISAALU().Synthesize(banzai.FreePDK15)
	raw := banzai.RAW().Synthesize(banzai.FreePDK15)
	rsaw := banzai.RSAW().Synthesize(banzai.FreePDK15)
	fpu := banzai.ALUPlusFPU().Synthesize(banzai.FreePDK15)
	fmt.Printf("\nFPISA ALU overhead: %+.1f%% power, %+.1f%% area   (paper: +13.0%%, +22.4%%)\n",
		(fp.DynamicUW/def.DynamicUW-1)*100, (fp.AreaUM2/def.AreaUM2-1)*100)
	fmt.Printf("RSAW overhead:      %+.1f%% power, %+.1f%% area, %+.1f%% delay (paper: +13.6%%, +35.0%%, +13.5%%)\n",
		(rsaw.DynamicUW/raw.DynamicUW-1)*100, (rsaw.AreaUM2/raw.AreaUM2-1)*100, (rsaw.MinDelayPs/raw.MinDelayPs-1)*100)
	fmt.Printf("Hard FPU vs ALU:    %.1fx power, %.1fx area          (paper: >5x both)\n",
		fpu.DynamicUW/def.DynamicUW, fpu.AreaUM2/def.AreaUM2)
}

func table2() {
	header("Table 2: evaluated queries")
	fmt.Printf("%-36s %-24s %s\n", "Query", "Acceleration method", "FP operation")
	for _, d := range query.Table2() {
		fmt.Printf("%-36s %-24s %s\n", d.Name, d.Method, d.FPOp)
	}
}

func table3() error {
	header("Table 3: FPISA-A resource utilization on the base architecture")
	pa, err := core.NewPipelineAggregator(core.DefaultFP32(core.ModeApprox), 1, 256, pisa.BaseArch())
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	fmt.Print(pa.Utilization().String())
	fmt.Println("(paper: 9/12 stages; VLIW max 96.88% — the variable-shift emulation bottleneck)")

	fmt.Println("\nAblation: with the §4.2 VariableShift/RSAW extensions")
	ext, err := core.NewPipelineAggregator(core.DefaultFP32(core.ModeApprox), core.MaxModules(pisa.ExtendedArch()), 256, pisa.ExtendedArch())
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	fmt.Printf("modules per pipeline: base=%d extended=%d\n",
		core.MaxModules(pisa.BaseArch()), core.MaxModules(pisa.ExtendedArch()))
	fmt.Print(ext.Utilization().String())
	return nil
}

func fig6() {
	header("Fig. 6: endianness conversion rate vs 100 Gbps requirement")
	const bufBytes = 1 << 20
	buf := make([]byte, bufBytes)
	measure := func(swap func([]byte), elemBytes int) float64 {
		// Warm up, then time.
		swap(buf)
		n := 0
		start := time.Now()
		for time.Since(start) < 200*time.Millisecond {
			swap(buf)
			n++
		}
		elapsed := time.Since(start).Seconds()
		return float64(n) * float64(bufBytes/elemBytes) / elapsed
	}
	fmt.Printf("%-6s %22s %22s %8s\n", "Format", "single-core rate (/s)", "needed for 100G (/s)", "cores")
	for _, c := range []struct {
		name  string
		bytes int
		swap  func([]byte)
	}{
		{"FP16", 2, payload.SwapBytes16},
		{"FP32", 4, payload.SwapBytes32},
		{"FP64", 8, payload.SwapBytes64},
	} {
		rate := measure(c.swap, c.bytes)
		need := payload.DesiredRatePerSec(100, c.bytes)
		fmt.Printf("%-6s %22.3g %22.3g %8d\n", c.name, rate, need,
			payload.CoresForLineRate(100, c.bytes, rate))
	}
	fmt.Println("(paper: single-core DPDK rates fall far short of line rate; FP16 needs ≥11 cores)")
}

func fig7(quick bool) {
	header("Fig. 7: element-wise max/min ratio distribution (8 workers)")
	n := 30000
	if quick {
		n = 5000
	}
	for _, p := range gradients.Fig7Profiles() {
		g := gradients.NewGenerator(p, 42)
		ws := g.WorkerGradients(8, n)
		h := gradients.RatioHistogram(ws)
		fmt.Printf("\n%s (%s): P(ratio < 2^7) = %.3f   (paper: ~0.83)\n", p.Name, p.Dataset, h.FractionBelow(7))
		fmt.Print(h.String())
	}
}

func fig8(quick bool) error {
	header("Fig. 8: FPISA-A aggregation error distribution (VGG19)")
	n := 30000
	if quick {
		n = 5000
	}
	for _, epoch := range []int{1, 20, 40} {
		g := gradients.NewGenerator(gradients.VGG19, 42)
		g.SetEpoch(epoch)
		ws := g.WorkerGradients(8, n)
		rep, err := gradients.ErrorDistribution(core.DefaultFP32(core.ModeApprox), ws)
		if err != nil {
			return err
		}
		fmt.Printf("\nEpoch %d: median |err| = %.3g, p95 = %.3g, overwrite share = %.4f%% (paper <0.9%%), left-shift share = %.4f%% (paper <0.1%%)\n",
			epoch, rep.MedianError, rep.P95Error, rep.OverwriteShare*100, rep.LeftShiftShare*100)
		fmt.Print(rep.Hist.String())
	}
	return nil
}

func fig9(quick bool) error {
	header("Fig. 9: convergence with default vs FPISA-A aggregation")
	epochs := 40
	archCount := 4
	if quick {
		epochs, archCount = 10, 2
	}
	trainSet, testSet := train.SyntheticDataset(1024, 512, 12, 4, 3)
	cfg := train.DefaultSGD()
	cfg.Epochs = epochs

	reducers := []train.Reducer{
		train.ExactReducer{},
		train.FPISAReducer{Cfg: core.DefaultFP32(core.ModeApprox)},
		train.FP16Reducer{Inner: train.ExactReducer{}},
		train.FP16Reducer{Inner: train.FPISAReducer{Cfg: core.DefaultFP32(core.ModeApprox)}},
	}
	for _, arch := range train.Fig9Architectures()[:archCount] {
		fmt.Printf("\nModel %s (%d epochs, 8 workers, batch 16):\n", arch.Name, epochs)
		var series []stats.Series
		for _, red := range reducers {
			res, err := train.Run(arch, trainSet, testSet, cfg, red)
			if err != nil {
				return err
			}
			series = append(series, res.Accuracy)
			fmt.Printf("  %-16s final accuracy %.4f\n", res.Reducer, res.Final)
		}
		fmt.Println(stats.FormatTable("epoch", series))
	}
	fmt.Println("(paper: FPISA-A curves track default addition within 0.1% final accuracy)")
	return nil
}

func fig10() {
	header("Fig. 10 (left): goodput vs cores, 16 KB messages")
	r := perfmodel.DefaultRates()
	fmt.Print(stats.FormatTable("cores", perfmodel.Fig10Left(r, 10)))
	fmt.Printf("cores to line rate: SwitchML/CPU=%d FPISA-A/CPU=%d FPISA-A/CPU(Opt)=%d (paper: 4 / 3 / 1)\n",
		r.CoresToLineRate(perfmodel.SwitchMLCPU, 16<<10),
		r.CoresToLineRate(perfmodel.FPISACPU, 16<<10),
		r.CoresToLineRate(perfmodel.FPISACPUOpt, 16<<10))

	header("Fig. 10 (right): goodput vs message size, 4 cores")
	fmt.Print(stats.FormatTable("msg KB", perfmodel.Fig10Right(r, perfmodel.Fig10Sizes())))
}

func fig11() {
	header("Fig. 11: end-to-end training speedup, FPISA-A over SwitchML (DPDK)")
	fmt.Print(perfmodel.FormatFig11())
	fmt.Println("(paper: 85.9/56.3/35.4/20.3/0.9/0.6/0.8% at 2 cores; 31.6/16.7/9.9/0.2/0.3/3.6/0.6% at 8)")
}

func fig13(scale int) error {
	header("Fig. 13: distributed query execution time (modeled), baseline vs FPISA")
	sc := query.DefaultScale()
	sc.UserVisits *= scale
	sc.Rankings *= scale
	sc.LineItems *= scale
	sc.Orders *= scale
	sc.Customers *= scale
	const workers = 2
	e := query.NewEngine(query.Generate(sc, workers, 7))
	fmt.Printf("%-36s %12s %12s %9s %16s\n", "Query", "Baseline(s)", "FPISA(s)", "Speedup", "rows to master")
	for _, q := range query.Queries() {
		_, bCost := e.RunBaseline(q)
		_, sCost, err := e.RunSwitch(q)
		if err != nil {
			return err
		}
		b := bCost.BaselineSeconds(workers)
		s := sCost.SwitchSeconds(workers)
		fmt.Printf("%-36s %12.2f %12.2f %8.2fx %7d -> %6d\n",
			q.Desc.Name, b, s, b/s, bCost.RowsToMaster, sCost.RowsToMaster)
	}
	fmt.Println("(paper: 1.9-2.7x over Spark across the five queries)")
	return nil
}
