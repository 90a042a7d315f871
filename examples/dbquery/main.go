// Dbquery: the five evaluated database queries (paper Table 2) executed
// IN the network — tuple streams pruned and aggregated by FPISA registers
// on a running switch over real UDP sockets — while a training tenant
// allreduces gradients through the same pipeline. One shared switch, two
// workload classes, one deficit scheduler.
//
// The query tenant is admitted at runtime over the wire (MsgJobAdmit with
// a workload-class descriptor: top-N pruning registers plus group
// accumulators), streams every query's worker partitions through
// MsgTuple batches, and harvests group sums with read-and-reset observer
// drains. Pruning queries must finish bit-identical to the engine's exact
// float64 Reference (comparison pruning is lossless); aggregation queries
// must drain bit-identical to the engine's software switch plan and land
// within accumulation tolerance of the Reference.
package main

import (
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
	"fpisa/internal/gradients"
	"fpisa/internal/pisa"
	"fpisa/internal/query"
	"fpisa/internal/transport"
)

func main() {
	const (
		workers = 2 // per tenant
		vecLen  = 128
	)
	// Job 0 is the resident training tenant; job id 1 stays vacant until
	// the query tenant admits over the wire.
	cfg := aggservice.Config{
		Workers: workers, Pool: 8, Modules: 1, Shards: 2,
		Jobs: 1, Capacity: 2, Dynamic: true,
		// Full FPISA so the switch's group sums are bit-exact against the
		// engine's software accumulator (same §3.3 register arithmetic).
		Mode: core.ModeFull, Arch: pisa.ExtendedArch(),
	}
	sw, err := aggservice.NewSwitch(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fab, err := transport.NewUDP(cfg.Ports(), sw.HandleBatch)
	if err != nil {
		log.Fatal(err)
	}
	defer fab.Close()
	addr := fab.SwitchAddr().String()
	fmt.Printf("FPISA switch on %s: training tenant (job 0) + query tenant (job 1) share %d shards\n",
		addr, sw.Shards())

	// The training tenant keeps allreducing in the background for the whole
	// run — queries must not disturb it, nor it the query results.
	var stop atomic.Bool
	var rounds atomic.Uint64
	var trainWG sync.WaitGroup
	vecs := gradients.NewGenerator(gradients.VGG19, 5).WorkerGradients(workers, vecLen)
	exact := gradients.AggregateExact(vecs)
	// Its workers serve every round on the one incarnation: each Reduce
	// continues the job's chunk stream.
	trainers := make([]*aggservice.Worker, workers)
	for w := range trainers {
		trainers[w] = aggservice.NewJobWorker(0, w, fab, cfg)
		trainers[w].Timeout = 100 * time.Millisecond
	}
	trainWG.Add(1)
	go func() {
		defer trainWG.Done()
		for !stop.Load() {
			var wg sync.WaitGroup
			outs := make([][]float32, workers)
			for w, wk := range trainers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out, err := wk.Reduce(vecs[w])
					if err != nil {
						log.Fatalf("training worker %d: %v", w, err)
					}
					outs[w] = out
				}()
			}
			wg.Wait()
			for i := range exact {
				if d := float64(outs[0][i]) - exact[i]; d > 1e-3 || d < -1e-3 {
					log.Fatalf("training round %d drifted at element %d: %g vs %g",
						rounds.Load(), i, outs[0][i], exact[i])
				}
			}
			rounds.Add(1)
		}
	}()

	// Admit the query tenant at runtime over the observer frame. One class
	// descriptor covers all five queries: the largest pruning register file
	// (top-10) plus the largest group bank (1024 groups); read-and-reset
	// drains clear both between queries.
	ac := aggservice.AdmitClass{Class: aggservice.ClassQuery, TopN: 10, Groups: 1024}
	operator := aggservice.Observer{Addr: addr, Timeout: time.Second}
	ack, err := operator.Admit(1, aggservice.JobSpec{Class: ac})
	if err != nil {
		log.Fatal(err)
	}
	if ack.Class != ac {
		log.Fatalf("switch applied class %v, not %v", ack.Class, ac)
	}
	epoch := ack.Epoch
	fmt.Printf("admitted job 1 as %v (epoch %d)\n\n", ac, epoch)

	eng := query.NewEngine(query.Generate(query.DefaultScale(), workers, 7))
	// One tuple lane per worker for the whole tenancy: the stop-and-wait
	// sequence numbers are per-incarnation, not per-query.
	clients := make([]*aggservice.TupleClient, workers)
	for w := range clients {
		clients[w] = aggservice.NewTupleClient(1, w, fab, cfg)
		clients[w].Epoch = epoch
	}
	for _, q := range query.Queries() {
		op := aggservice.OpQueryAgg
		if q.TopN > 0 {
			op = aggservice.OpQueryTopN
		} else if q.Desc.Method == query.Pruning {
			op = aggservice.OpQueryGroupMax
		}

		// Stream the worker partitions through the switch. Workers send
		// sequentially so the fold order matches the engine's row scan
		// (bit-exactness of sums needs it; pruning is lossless either way).
		var survivors []query.Row
		sent := 0
		start := time.Now()
		for w := 0; w < workers; w++ {
			rows := eng.PartRows(q, w)
			keys := make([]uint32, len(rows))
			vals := make([]float32, len(rows))
			for i, r := range rows {
				keys[i], vals[i] = r.Key, r.Val
			}
			alive, err := clients[w].Send(op, keys, vals)
			if err != nil {
				log.Fatalf("%s worker %d: %v", q.Desc.Name, w, err)
			}
			for _, i := range alive {
				survivors = append(survivors, rows[i])
			}
			sent += len(rows)
		}

		ref := eng.Reference(q)
		var got query.Result
		var rowsToMaster int
		// Harvest and reset: read-and-reset the group bank and clear the
		// pruning registers so the next query starts from zero state.
		entries, err := operator.Drain(1, aggservice.DrainGroups, aggservice.DrainFlagResetPrune)
		if err != nil {
			log.Fatalf("%s drain: %v", q.Desc.Name, err)
		}
		if op == aggservice.OpQueryAgg {
			// The drained groups ARE the result; the master only sorts.
			sres, _, err := eng.RunSwitch(q)
			if err != nil {
				log.Fatal(err)
			}
			if len(entries) != len(sres.Entries) {
				log.Fatalf("%s: %d drained groups, engine plan drained %d",
					q.Desc.Name, len(entries), len(sres.Entries))
			}
			for i, e := range entries {
				if e.Key != sres.Entries[i].Key || float64(e.Val) != sres.Entries[i].Val {
					log.Fatalf("%s group %d: wire (%d, %v) != engine plan (%d, %v)",
						q.Desc.Name, i, e.Key, e.Val, sres.Entries[i].Key, sres.Entries[i].Val)
				}
			}
			for i, e := range entries {
				want := ref.Entries[i]
				if e.Key != want.Key {
					log.Fatalf("%s: group key %d != reference %d", q.Desc.Name, e.Key, want.Key)
				}
				if d := math.Abs(float64(e.Val) - want.Val); d > 1e-3*math.Abs(want.Val)+1e-6 {
					log.Fatalf("%s group %d: %v vs reference %v", q.Desc.Name, e.Key, e.Val, want.Val)
				}
			}
			got = sres
			rowsToMaster = len(entries)
		} else {
			// Pruning: only the register survivors cross to the master,
			// which must still compute the EXACT answer from them.
			got = q.Finish(survivors, q.TopN)
			if len(got.Entries) != len(ref.Entries) {
				log.Fatalf("%s: finish on %d survivors gave %d entries, reference %d",
					q.Desc.Name, len(survivors), len(got.Entries), len(ref.Entries))
			}
			for i := range got.Entries {
				if got.Entries[i] != ref.Entries[i] {
					log.Fatalf("%s entry %d: %+v != reference %+v",
						q.Desc.Name, i, got.Entries[i], ref.Entries[i])
				}
			}
			rowsToMaster = len(survivors)
		}

		fmt.Printf("%s — %s via %s: %d rows -> %d to the master in %v\n",
			q.Desc.Name, q.Desc.FPOp, q.Desc.Method, sent, rowsToMaster,
			time.Since(start).Round(time.Millisecond))
		n := min(3, len(got.Entries))
		for i := 0; i < n; i++ {
			var refVal float64
			if i < len(ref.Entries) {
				refVal = ref.Entries[i].Val
			}
			fmt.Printf("  %-12d in-network %16.4f   reference %16.4f\n",
				got.Entries[i].Key, got.Entries[i].Val, refVal)
		}
		if op == aggservice.OpQueryAgg {
			fmt.Println("  drained groups bit-identical to the engine's switch plan; within 1e-3 of float64 reference")
		} else {
			fmt.Printf("  lossless pruning: result from %d survivors bit-identical to the full reference\n", len(survivors))
		}
	}

	stop.Store(true)
	trainWG.Wait()
	st1, _ := sw.JobStats(1)
	fmt.Printf("\ntraining tenant stayed live throughout: %d allreduce rounds (job 0, one incarnation)\n",
		rounds.Load())
	fmt.Printf("query tenant (%v): %d tuple batches folded (job 1)\n", st1.Class, st1.Completions)
	if rounds.Load() == 0 {
		log.Fatal("training tenant made no progress while queries ran")
	}
	if _, err := operator.Evict(1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("evicted job 1 — its registers went with the incarnation, the id is vacant again")
}
