// Command auriceval regenerates the paper's tables and figures against a
// synthetic network (see DESIGN.md for the per-experiment index).
//
// Usage:
//
//	auriceval -exp fig2|fig3|fig4|table3|table4|fig10|localglobal|fig11|fig12|table5|all \
//	          [-seed N] [-markets N] [-enbs N] [-folds N] [-samples N] [-quick]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"auric/internal/core"
	"auric/internal/eval"
	"auric/internal/launch"
	"auric/internal/netsim"
	"auric/internal/obs"
	"auric/internal/report"
	"auric/internal/stats"
	"auric/internal/trace"
)

type env struct {
	w       *netsim.World
	cv      eval.CVOptions
	quick   bool
	markets []int // the four timezone markets
	all     []int // every market
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run")
		seed    = flag.Uint64("seed", 1, "generation seed")
		markets = flag.Int("markets", 28, "number of markets")
		enbs    = flag.Int("enbs", 40, "eNodeBs per market")
		folds   = flag.Int("folds", 3, "cross-validation folds")
		samples = flag.Int("samples", 0, "max samples per parameter table (0 = all)")
		quick   = flag.Bool("quick", true, "shrink the expensive learners (forest size, MLP depth)")
		workers = flag.Int("workers", 0, "per-parameter worker pool size (0 = all CPUs)")
		timings = flag.Bool("timings", true, "print a pipeline stage-timing summary after the run")
	)
	flag.Parse()
	if *timings {
		defer printStageTimings()
	}

	fmt.Printf("generating network: seed=%d markets=%d eNodeBs/market=%d\n", *seed, *markets, *enbs)
	w := netsim.Generate(netsim.Options{Seed: *seed, Markets: *markets, ENodeBsPerMarket: *enbs})
	fmt.Printf("carriers=%s eNodeBs=%s\n\n", report.Count(len(w.Net.Carriers)), report.Count(len(w.Net.ENodeBs)))

	e := &env{
		w:     w,
		cv:    eval.CVOptions{Folds: *folds, Seed: *seed, MaxSamples: *samples, Workers: *workers},
		quick: *quick,
	}
	e.markets = eval.PickTimezoneMarkets(w)
	for i := range w.Net.Markets {
		e.all = append(e.all, i)
	}

	runners := map[string]func(*env) error{
		"fig2": runFig2, "fig3": runFig3, "fig4": runFig4,
		"table3": runTable3, "table4": runTable4, "fig10": runFig10,
		"localglobal": runLocalGlobal, "fig11": runFig11, "fig12": runFig12,
		"table5": runTable5, "deps": runDeps, "scale": runScale,
		"trace": runTrace,
	}
	order := []string{"fig2", "fig3", "fig4", "table3", "table4", "fig10", "localglobal", "fig11", "fig12", "table5", "deps"}
	// "scale" regenerates worlds of increasing size and "trace" prints one
	// recommendation's span tree; neither is part of "all" — run them
	// explicitly with -exp scale / -exp trace.

	if *exp == "all" {
		for _, name := range order {
			fmt.Printf("==== %s ====\n", name)
			if err := runners[name](e); err != nil {
				fmt.Fprintln(os.Stderr, "auriceval:", err)
				os.Exit(1)
			}
			fmt.Println()
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "auriceval: unknown experiment %q (have %v, all)\n", *exp, order)
		os.Exit(2)
	}
	if err := run(e); err != nil {
		fmt.Fprintln(os.Stderr, "auriceval:", err)
		os.Exit(1)
	}
}

func runFig2(e *env) error {
	rows := eval.Fig2(e.w)
	labels := make([]string, 0, 20)
	values := make([]float64, 0, 20)
	for _, r := range rows[:20] {
		labels = append(labels, r.Param)
		values = append(values, float64(r.Distinct))
	}
	fmt.Print(report.Bars("distinct values per parameter (top 20 of 65, network-wide)", labels, values, 40))
	over10 := 0
	for _, r := range rows {
		if r.Distinct > 10 {
			over10++
		}
	}
	fmt.Printf("parameters with >10 distinct values: %d of %d (paper: \"several\"; max %d)\n",
		over10, len(rows), rows[0].Distinct)
	return nil
}

func runFig3(e *env) error {
	rows := eval.Fig3(e.w)
	// Print the ten most variable parameters across all markets.
	sort.SliceStable(rows, func(i, j int) bool {
		return sum(rows[i].PerMarket) > sum(rows[j].PerMarket)
	})
	header := []string{"parameter"}
	for m := range e.w.Net.Markets {
		header = append(header, fmt.Sprintf("m%d", m+1))
	}
	var table [][]string
	for _, r := range rows[:10] {
		row := []string{r.Param}
		for _, d := range r.PerMarket {
			row = append(row, strconv.Itoa(d))
		}
		table = append(table, row)
	}
	fmt.Print(report.Table(header, table))
	return nil
}

func runFig4(e *env) error {
	rows, byClass := eval.Fig4(e.w)
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{r.Param, fmt.Sprintf("%.2f", r.Pooled), r.Class.String()})
	}
	sort.Slice(table, func(i, j int) bool { return table[i][1] > table[j][1] })
	fmt.Print(report.Table([]string{"parameter", "skewness", "class"}, table[:15]))
	fmt.Printf("\nhighly skewed: %d, moderately skewed: %d, symmetric: %d (of %d; paper: 33/12/20)\n",
		byClass[stats.HighlySkewed], byClass[stats.ModeratelySkewed],
		byClass[stats.Symmetric], len(rows))
	return nil
}

func runTable3(e *env) error {
	rows := eval.Table3(e.w, e.markets)
	var table [][]string
	totC, totE, totP := 0, 0, 0
	for i, r := range rows {
		table = append(table, []string{
			fmt.Sprintf("Market %d", i+1), r.Timezone,
			report.Count(r.Carriers), report.Count(r.ENodeBs), report.Count(r.ParamValues),
		})
		totC += r.Carriers
		totE += r.ENodeBs
		totP += r.ParamValues
	}
	table = append(table, []string{"All four", "", report.Count(totC), report.Count(totE), report.Count(totP)})
	fmt.Print(report.Table([]string{"", "timezone", "carriers", "eNodeBs", "parameters"}, table))
	return nil
}

func runTable4(e *env) error {
	results, _, err := eval.GlobalLearnerComparison(e.w, e.markets, eval.DefaultLearnerSpecs(e.quick, e.cv.Workers), e.cv)
	if err != nil {
		return err
	}
	printLearnerTable(e, results)
	return nil
}

func printLearnerTable(e *env, results []eval.LearnerResult) {
	header := []string{"learner"}
	for i := range e.markets {
		header = append(header, fmt.Sprintf("market %d", i+1))
	}
	header = append(header, "all four")
	var table [][]string
	for _, r := range results {
		row := []string{r.Learner}
		for _, m := range e.markets {
			row = append(row, report.Percent(r.PerMarket[m].Accuracy()))
		}
		row = append(row, report.Percent(r.Overall.Accuracy()))
		table = append(table, row)
	}
	fmt.Print(report.Table(header, table))
}

func runFig10(e *env) error {
	_, fig10, err := eval.GlobalLearnerComparison(e.w, e.markets[:1], eval.DefaultLearnerSpecs(e.quick, e.cv.Workers), e.cv)
	if err != nil {
		return err
	}
	m := e.markets[0]
	rows := fig10[m]
	header := []string{"parameter", "distinct"}
	header = append(header, eval.GlobalLearners...)
	var table [][]string
	for _, r := range rows[:15] {
		row := []string{r.Param, strconv.Itoa(r.Distinct)}
		for _, l := range eval.GlobalLearners {
			row = append(row, report.Percent(r.Acc[l]))
		}
		table = append(table, row)
	}
	fmt.Printf("market %d, 15 highest-variability parameters:\n", m)
	fmt.Print(report.Table(header, table))
	return nil
}

func runLocalGlobal(e *env) error {
	g4, l4, err := eval.LocalVsGlobal(e.w, e.markets, e.cv, nil)
	if err != nil {
		return err
	}
	fmt.Printf("4 markets : CF global %s -> CF local %s (paper: 95.48%% -> 96.14%%)\n",
		report.Percent(g4.Accuracy()), report.Percent(l4.Accuracy()))
	gAll, lAll, err := eval.LocalVsGlobal(e.w, e.all, e.cv, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%d markets: CF global %s -> CF local %s (paper, 28 markets: 96.5%% -> 96.9%%)\n",
		len(e.all), report.Percent(gAll.Accuracy()), report.Percent(lAll.Accuracy()))
	return nil
}

func runFig11(e *env) error {
	rows, err := eval.Fig11(e.w, 4, e.cv)
	if err != nil {
		return err
	}
	for _, r := range rows {
		labels := make([]string, len(r.PerMarket))
		for m := range r.PerMarket {
			labels[m] = fmt.Sprintf("market %-2d (d=%d)", m+1, r.DistinctPer[m])
		}
		vals := make([]float64, len(r.PerMarket))
		for m, a := range r.PerMarket {
			vals[m] = a * 100
		}
		fmt.Print(report.Bars("local-learner accuracy for "+r.Param+" (%)", labels, vals, 40))
		fmt.Println()
	}
	return nil
}

func runFig12(e *env) error {
	labels, local, err := eval.Fig12(e.w, e.cv)
	if err != nil {
		return err
	}
	tot := float64(labels.Total)
	if tot == 0 {
		fmt.Println("no mismatches")
		return nil
	}
	fmt.Printf("local learner accuracy across all markets: %s\n", report.Percent(local.Accuracy()))
	fmt.Printf("mismatches labeled by the ground-truth oracle (%d total):\n", labels.Total)
	fmt.Print(report.Bars("", []string{
		"update learner     (paper:  5%)",
		"good recommendation (paper: 28%)",
		"inconclusive        (paper: 67%)",
	}, []float64{
		100 * float64(labels.UpdateLearner) / tot,
		100 * float64(labels.GoodRecommendation) / tot,
		100 * float64(labels.Inconclusive) / tot,
	}, 40))
	return nil
}

func runTable5(e *env) error {
	res, _, err := launch.Simulate(e.w, launch.SimOptions{Seed: e.cv.Seed, Launches: 1251})
	if err != nil {
		return err
	}
	fmt.Print(report.Table([]string{"metric", "value", "paper"}, [][]string{
		{"new carriers launched", report.Count(res.Launched), "1251"},
		{"changes recommended by Auric", fmt.Sprintf("%d (%.1f%%)", res.WithChanges, 100*res.ChangeRate()), "143 (11.4%)"},
		{"changes implemented successfully", report.Count(res.Implemented), "114 (9%)"},
		{"fall-outs", report.Count(res.Fallouts), "29"},
		{"  premature off-band unlocks", report.Count(res.FalloutUnlock), ""},
		{"  EMS execution timeouts", report.Count(res.FalloutTimeout), ""},
		{"parameters changed", report.Count(res.ParamsChanged), "1102"},
	}))
	return nil
}

func runDeps(e *env) error {
	res, err := eval.DependencyRecovery(e.w, e.cv.MaxSamples)
	if err != nil {
		return err
	}
	fmt.Printf("chi-square dependency recovery over %d parameters:\n", res.Params)
	fmt.Printf("  recall of true dependencies:    %s\n", report.Percent(res.Recall()))
	fmt.Printf("  ranked in upper half when found: %s\n", report.Percent(res.TopWeighted()))
	return nil
}

// runScale measures collaborative-filtering accuracy as the network
// grows, showing convergence toward the paper's large-network numbers.
func runScale(e *env) error {
	fmt.Println("CF accuracy vs network size (4 markets each, global -> local):")
	for _, enbs := range []int{20, 40, 80} {
		w := netsim.Generate(netsim.Options{Seed: e.cv.Seed, Markets: 4, ENodeBsPerMarket: enbs})
		markets := eval.PickTimezoneMarkets(w)
		cv := e.cv
		cv.MaxSamples = 0 // use every carrier at each scale
		g, l, err := eval.LocalVsGlobal(w, markets, cv, nil)
		if err != nil {
			return err
		}
		fmt.Printf("  %3d eNodeBs/market (%5d carriers): %s -> %s\n",
			enbs, len(w.Net.Carriers), report.Percent(g.Accuracy()), report.Percent(l.Accuracy()))
	}
	return nil
}

// runTrace trains the local engine on the generated world, runs one
// traced recommendation and prints its span tree — the CLI view of what
// auricd serves at /debug/traces, including the per-parameter relaxation
// levels and candidate counts.
func runTrace(e *env) error {
	engine := core.New(e.w.Schema, core.Options{Local: true, Workers: e.cv.Workers})
	if err := engine.Train(e.w.Net, e.w.X2, e.w.Current); err != nil {
		return err
	}
	c := &e.w.Net.Carriers[len(e.w.Net.Carriers)/2]
	neighbors := e.w.X2.CarrierNeighbors(c.ID)
	tr := trace.New(trace.Options{SampleRate: 1})
	ctx, root := tr.StartRoot(context.Background(), "auriceval.recommend")
	res, err := engine.RecommendBatch(ctx, []core.BatchItem{{Carrier: c, Neighbors: neighbors}})
	root.Finish()
	if err == nil {
		err = res[0].Err
	}
	if err != nil {
		return err
	}
	traces := tr.Traces()
	if len(traces) == 0 {
		return fmt.Errorf("trace: no trace recorded")
	}
	fmt.Printf("traced recommendation for carrier %d (%d neighbors):\n\n", c.ID, len(neighbors))
	fmt.Print(trace.FormatTree(traces[0]))
	return nil
}

// printStageTimings summarizes the pipeline stage timers (the same
// histograms auricd exports at /metrics) accumulated over the run:
// engine train/recommend wall-clock, per-parameter fan-out work, dataset
// labeling and snapshot loads.
func printStageTimings() {
	var table [][]string
	for _, f := range obs.Default().Gather() {
		if f.Kind != obs.KindHistogram || !strings.HasPrefix(f.Name, "auric_") {
			continue
		}
		for _, s := range f.Series {
			if s.Count == 0 {
				continue
			}
			mean := s.Sum / float64(s.Count)
			table = append(table, []string{
				strings.TrimSuffix(strings.TrimPrefix(f.Name, "auric_"), "_seconds"),
				report.Count(int(s.Count)),
				fmt.Sprintf("%.3fs", s.Sum),
				fmt.Sprintf("%.3fms", mean*1000),
			})
		}
	}
	if len(table) == 0 {
		return
	}
	fmt.Println("==== pipeline stage timings ====")
	fmt.Print(report.Table([]string{"stage", "calls", "total", "mean"}, table))
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
