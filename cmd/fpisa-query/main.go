// Command fpisa-query runs one of the five evaluated database queries
// (paper Table 2) against generated data, with both execution plans, and
// prints the results side by side:
//
//	fpisa-query -query "Top-N" -workers 2 -scale 1
//
// With -switch it instead talks to a running fpisa-switch daemon through
// the out-of-band observer frame (so the probe never disturbs a worker's
// learned return path). -job queries one tenant job's live stats; -admit
// and -evict drive the runtime lifecycle control plane (the daemon must
// run with -dynamic). -weight sets the admitted job's fair-scheduler
// weight, -profile its numeric profile (e.g. bf16/trunc or f32/rne/g2)
// and -class its workload class ("training", "query:TOPN:GROUPS" or
// "telemetry:GROUPS" — analytics tenants get pruning registers, group
// accumulators or telemetry sketches instead of the allreduce slot pool);
// the command prints the weight, profile, class and incarnation epoch the
// switch actually applied (echoed in the ack) and exits non-zero if the
// switch clamped a requested weight of 0 or applied a different profile
// or class than the one requested. -drain harvests (read-and-reset) an
// analytics tenant's registers: -kind groups, hh or hist, with
// -resetprune also clearing its pruning state:
//
//	fpisa-query -switch 127.0.0.1:9099 -job 1
//	fpisa-query -switch 127.0.0.1:9099 -admit 2 -weight 4 -profile bf16/trunc
//	fpisa-query -switch 127.0.0.1:9099 -admit 3 -class query:10:1024
//	fpisa-query -switch 127.0.0.1:9099 -drain 3 -kind groups -resetprune
//	fpisa-query -switch 127.0.0.1:9099 -evict 1
//
// All switch operations exit non-zero with the error on stderr when the
// switch refuses them (unknown job, already admitted, lifecycle disabled, …),
// so scripts can gate on the result.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
	"fpisa/internal/query"
)

func main() {
	name := flag.String("query", "Top-N", `query name (see "fpisa-bench -exp table2")`)
	workers := flag.Int("workers", 2, "worker partitions")
	scale := flag.Int("scale", 1, "dataset scale multiplier")
	rows := flag.Int("rows", 10, "result rows to print")
	swAddr := flag.String("switch", "", "address of a running fpisa-switch to operate on instead")
	job := flag.Int("job", 0, "job id to query (with -switch)")
	admit := flag.Int("admit", -1, "admit this job id at runtime (with -switch)")
	weight := flag.Int("weight", 1, "fair-scheduler weight for -admit (0 is clamped to 1 by the switch)")
	profile := flag.String("profile", "", `numeric profile for -admit, e.g. "f32/rne/g2" or "bf16/trunc" (empty = f32/trunc)`)
	class := flag.String("class", "", `workload class for -admit: "training", "query:TOPN:GROUPS" or "telemetry:GROUPS" (empty = training)`)
	evict := flag.Int("evict", -1, "evict this job id at runtime (with -switch)")
	drain := flag.Int("drain", -1, "drain this analytics job's state (with -switch and -kind)")
	kind := flag.String("kind", "groups", `what -drain harvests: "groups" (sum/utilization registers), "hh" (heavy hitters) or "hist" (size histogram)`)
	resetPrune := flag.Bool("resetprune", false, "with -drain: also clear the job's top-n and group-max pruning registers")
	timeout := flag.Duration("timeout", time.Second, "per-probe reply timeout (with -switch)")
	flag.Parse()
	weightSet, profileSet, classSet := false, false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "weight":
			weightSet = true
		case "profile":
			profileSet = true
		case "class":
			classSet = true
		}
	})

	if *swAddr != "" {
		var err error
		switch {
		case *admit >= 0 && *evict >= 0:
			err = fmt.Errorf("-admit and -evict are mutually exclusive")
		case weightSet && *admit < 0:
			// Only -admit consumes a weight; silently discarding one on an
			// evict or stats probe would let an operator believe they
			// reweighted a tenant.
			err = fmt.Errorf("-weight only applies to -admit")
		case profileSet && *admit < 0:
			// Same guard for -profile: an ignored precision request must
			// not look applied.
			err = fmt.Errorf("-profile only applies to -admit")
		case classSet && *admit < 0:
			// And for -class: an ignored register ask must not look granted.
			err = fmt.Errorf("-class only applies to -admit")
		case *admit >= 0:
			err = admitRequest(os.Stdout, *swAddr, *admit, *weight, *profile, *class, *timeout)
		case *evict >= 0:
			err = evictRequest(os.Stdout, *swAddr, *evict, *timeout)
		case *drain >= 0:
			err = drainRequest(os.Stdout, *swAddr, *drain, *kind, *resetPrune, *timeout)
		default:
			err = queryJobStats(os.Stdout, *swAddr, *job, *timeout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpisa-query:", err)
			os.Exit(1)
		}
		return
	}

	q, err := query.QueryByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	sc := query.DefaultScale()
	sc.UserVisits *= *scale
	sc.Rankings *= *scale
	sc.LineItems *= *scale
	sc.Orders *= *scale
	sc.Customers *= *scale

	e := query.NewEngine(query.Generate(sc, *workers, 7))
	base, bCost := e.RunBaseline(q)
	accel, sCost, err := e.RunSwitch(q)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s — %s via %s\n\n", q.Desc.Name, q.Desc.FPOp, q.Desc.Method)
	fmt.Printf("%-12s %18s %18s\n", "key", "baseline", "FPISA")
	n := min(*rows, len(base.Entries))
	for i := 0; i < n; i++ {
		var av float64
		if i < len(accel.Entries) {
			av = accel.Entries[i].Val
		}
		fmt.Printf("%-12d %18.6f %18.6f\n", base.Entries[i].Key, base.Entries[i].Val, av)
	}
	fmt.Printf("\nrows to master: baseline %d, FPISA %d\n", bCost.RowsToMaster, sCost.RowsToMaster)
	b, s := bCost.BaselineSeconds(*workers), sCost.SwitchSeconds(*workers)
	fmt.Printf("modeled time:   baseline %.2fs, FPISA %.2fs (%.2fx)\n", b, s, b/s)
}

// queryJobStats probes a running fpisa-switch for one job's counters. A
// switch that reports the job as unknown is an error (non-zero exit), not
// a silent empty result.
func queryJobStats(w io.Writer, addr string, job int, timeout time.Duration) error {
	st, err := aggservice.Observer{Addr: addr, Timeout: timeout}.Stats(job)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "switch %s, job %d (%s)\n", addr, job, st.Phase)
	fmt.Fprintf(w, "%-22s %d\n", "scheduler weight", st.Weight)
	fmt.Fprintf(w, "%-22s %s\n", "numeric profile", st.Profile)
	fmt.Fprintf(w, "%-22s %v\n", "workload class", st.Class)
	fmt.Fprintf(w, "%-22s %d\n", "values aggregated", st.Adds)
	fmt.Fprintf(w, "%-22s %d\n", "chunks completed", st.Completions)
	fmt.Fprintf(w, "%-22s %d\n", "retransmits observed", st.Retransmits)
	fmt.Fprintf(w, "%-22s %d\n", "scheduler defers", st.SchedDefers)
	fmt.Fprintf(w, "%-22s %d\n", "slots outstanding", st.Outstanding)
	fmt.Fprintf(w, "%-22s %d\n", "result-cache hits", st.CacheHits)
	fmt.Fprintf(w, "%-22s %d\n", "result-cache bytes", st.CacheBytes)
	fmt.Fprintf(w, "%-22s %d\n", "coalesced results", st.Coalesced)
	return nil
}

// admitRequest admits a job with a fair-scheduler weight and a numeric
// profile, and reports the weight, profile and incarnation epoch the
// switch actually applied (echoed in the ack). A requested weight of 0
// that the switch clamps to its floor is an error, and so is an echoed
// profile that differs from the one requested — the operator asked for
// something the switch did not grant, and a script must see that rather
// than a silently re-negotiated tenant.
func admitRequest(w io.Writer, addr string, job, weight int, profile, class string, timeout time.Duration) error {
	if weight < 0 || weight > aggservice.MaxWeight {
		return fmt.Errorf("weight %d outside the 16-bit weight space", weight)
	}
	prof := core.DefaultProfile
	if profile != "" {
		var err error
		if prof, err = core.ParseProfile(profile); err != nil {
			return err
		}
	}
	ac, err := aggservice.ParseClass(class)
	if err != nil {
		return err
	}
	ack, err := aggservice.Observer{Addr: addr, Timeout: timeout}.Admit(job,
		aggservice.JobSpec{Weight: weight, Profile: prof, Class: ac})
	if err != nil {
		return err
	}
	// The echoed incarnation epoch, weight, profile and class are
	// operational output: workers of a re-admitted job id must stamp the
	// epoch into their ADDs (Worker.Epoch) and speak the echoed profile's
	// wire format (Worker.Profile), the weight is the share the scheduler
	// will actually enforce, and the class names the data path the switch
	// provisioned.
	fmt.Fprintf(w, "switch %s: job %d %s (weight %d, profile %s, class %v, epoch %d)\n",
		addr, job, ack.Status, ack.Weight, ack.Profile, ack.Class, ack.Epoch)
	if weight == 0 && ack.Weight != 0 {
		return fmt.Errorf("switch %s clamped the requested weight 0 to %d for job %d", addr, ack.Weight, job)
	}
	if ack.Profile != prof {
		return fmt.Errorf("switch %s applied profile %s for job %d, not the requested %s", addr, ack.Profile, job, prof)
	}
	if ack.Class != ac {
		return fmt.Errorf("switch %s applied class %v for job %d, not the requested %v", addr, ack.Class, job, ac)
	}
	return nil
}

// evictRequest drives one evict round trip and reports the transition.
func evictRequest(w io.Writer, addr string, job int, timeout time.Duration) error {
	ack, err := aggservice.Observer{Addr: addr, Timeout: timeout}.Evict(job)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "switch %s: job %d %s (epoch %d)\n", addr, job, ack.Status, ack.Epoch)
	return nil
}

// drainRequest harvests one kind of analytics state from a running switch
// (read-and-reset on the switch; Observer.Drain retries by nonce, so a
// lost reply never costs the interval) and prints the entries.
func drainRequest(w io.Writer, addr string, job int, kindName string, resetPrune bool, timeout time.Duration) error {
	var kind aggservice.DrainKind
	switch kindName {
	case "groups":
		kind = aggservice.DrainGroups
	case "hh":
		kind = aggservice.DrainHeavyHitters
	case "hist":
		kind = aggservice.DrainHistogram
	default:
		return fmt.Errorf("-kind %q: want groups, hh or hist", kindName)
	}
	var flags uint8
	if resetPrune {
		flags |= aggservice.DrainFlagResetPrune
	}
	entries, err := aggservice.Observer{Addr: addr, Timeout: timeout}.Drain(job, kind, flags)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "switch %s: job %d drained %d %s entries\n", addr, job, len(entries), kindName)
	for _, e := range entries {
		switch kind {
		case aggservice.DrainHistogram:
			fmt.Fprintf(w, "  2^%-3d %g\n", e.Key, e.Val)
		case aggservice.DrainHeavyHitters:
			fmt.Fprintf(w, "  0x%08X %g\n", e.Key, e.Val)
		default:
			fmt.Fprintf(w, "  %-10d %g\n", e.Key, e.Val)
		}
	}
	return nil
}
