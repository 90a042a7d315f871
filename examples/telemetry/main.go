// Telemetry: floating-point traffic telemetry inside the switch — the
// §7 "new design options" workload, run as a first-class tenant on the
// shared multi-tenant switch over real UDP sockets, concurrently with a
// training tenant allreducing through the same pipeline shards.
//
// The telemetry tenant admits with a workload-class descriptor (16 prefix
// traffic classes) and streams flow samples as MsgTuple batches: each
// sample's key is classified by its top bits, its FP32 byte count
// accumulates in the class's utilization register, and every sample feeds
// a space-saving heavy-hitter table and a log2 size histogram. A
// collector drains the utilization registers with read-and-reset observer
// frames every interval — repeated same-register adds deliberately ride
// the §3.3 sticky-overflow semantics, so a real deployment drains within
// the register's dynamic range exactly as done here — and the harvest
// must match host-side accounting to float32 accumulation tolerance.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
	"fpisa/internal/gradients"
	"fpisa/internal/pisa"
	"fpisa/internal/stats"
	"fpisa/internal/transport"
)

func main() {
	const (
		workers   = 2  // per tenant
		classes   = 16 // traffic classes (top 4 key bits)
		intervals = 3
		tick      = 100 // samples between collector drains
		vecLen    = 128
	)
	cfg := aggservice.Config{
		Workers: workers, Pool: 8, Modules: 1, Shards: 2, Jobs: 2,
		Classes: []aggservice.AdmitClass{
			{}, // job 0: training
			{Class: aggservice.ClassTelemetry, Groups: classes},
		},
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
	operator := aggservice.Observer{Addr: fab.SwitchAddr().String(), Timeout: time.Second}
	telemetry, _ := sw.JobStats(1)
	fmt.Printf("FPISA switch on %s: training tenant (job 0) + telemetry tenant (job 1, %v)\n",
		operator.Addr, telemetry.Class)

	// The training tenant allreduces for the whole run; telemetry must not
	// disturb it, nor it the telemetry sketches.
	var stop atomic.Bool
	var rounds atomic.Uint64
	var trainWG sync.WaitGroup
	vecs := gradients.NewGenerator(gradients.ResNet50, 3).WorkerGradients(workers, vecLen)
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
					log.Fatalf("training drifted at element %d: %g vs %g", i, outs[0][i], exact[i])
				}
			}
			rounds.Add(1)
		}
	}()

	// A skewed flow mix per interval: two dominant flows (classes 1 and 10)
	// plus a long tail across all classes. The host mirrors what the switch
	// should account, for verification only — the data path never needs it.
	rng := rand.New(rand.NewSource(11))
	genInterval := func() ([]uint32, []float32) {
		var keys []uint32
		var vals []float32
		flow := func(key uint32, n int, size float32) {
			for i := 0; i < n; i++ {
				keys = append(keys, key)
				vals = append(vals, size)
			}
		}
		flow(0x10000001, 400, 1500)
		flow(0xA0000002, 250, 900)
		for i := 0; i < 300; i++ {
			flow(rng.Uint32(), 1, float32(64+rng.Intn(1400)))
		}
		rng.Shuffle(len(keys), func(i, j int) {
			keys[i], keys[j] = keys[j], keys[i]
			vals[i], vals[j] = vals[j], vals[i]
		})
		return keys, vals
	}

	cl := aggservice.NewTupleClient(1, 0, fab, cfg)
	// Host mirror of the switch's log2 size histogram (drained at the end).
	mirrorHist := stats.MustNewLogHistogram(2, 0, 32)

	fmt.Printf("\nper-class utilization drained each interval (MB), collector tick every %d samples:\n", tick)
	fmt.Printf("%-10s %10s %10s %10s %14s\n", "interval", "class 1", "class 10", "other", "vs host mirror")
	for it := 1; it <= intervals; it++ {
		keys, vals := genInterval()
		mirror := make([]float64, classes)
		for i := range keys {
			mirror[keys[i]>>28] += float64(vals[i])
			mirrorHist.Observe(float64(vals[i]))
		}
		// Stream the interval, draining the utilization registers at every
		// collector tick so per-class sums stay inside the register's
		// dynamic range (§3.3: repeated same-slot adds are sticky-overflow
		// by design — the drain cadence IS the accuracy contract).
		harvested := make([]float64, classes)
		for base := 0; base < len(keys); base += tick {
			end := base + tick
			if end > len(keys) {
				end = len(keys)
			}
			if _, err := cl.Send(aggservice.OpTelemetry, keys[base:end], vals[base:end]); err != nil {
				log.Fatalf("interval %d: %v", it, err)
			}
			entries, err := operator.Drain(1, aggservice.DrainGroups, 0)
			if err != nil {
				log.Fatalf("interval %d drain: %v", it, err)
			}
			for _, e := range entries {
				harvested[e.Key] += float64(e.Val)
			}
		}
		var other float64
		for c := 0; c < classes; c++ {
			if d := math.Abs(harvested[c] - mirror[c]); d > 1e-3*mirror[c]+1e-6 {
				log.Fatalf("interval %d class %d: drained %v, host mirror %v", it, c, harvested[c], mirror[c])
			}
			if c != 1 && c != 10 {
				other += harvested[c]
			}
		}
		fmt.Printf("%-10d %10.3f %10.3f %10.3f %14s\n",
			it, harvested[1]/1e6, harvested[10]/1e6, other/1e6, "exact")
	}

	// The heavy-hitter table accumulated across the whole run: the two
	// dominant flows must own the top rows.
	hh, err := operator.Drain(1, aggservice.DrainHeavyHitters, 0)
	if err != nil {
		log.Fatal(err)
	}
	if len(hh) < 2 || hh[0].Key != 0x10000001 || hh[1].Key != 0xA0000002 {
		log.Fatalf("heavy hitters %v: want flows 0x10000001, 0xA0000002 on top", hh)
	}
	fmt.Println("\nheavy hitters (space-saving table, drained once):")
	for i, e := range hh {
		if i == 3 {
			break
		}
		fmt.Printf("  flow 0x%08X  ~%.1f MB\n", e.Key, float64(e.Val)/1e6)
	}

	// The sample-size histogram: drained bins must match the host mirror
	// bin for bin (counting is integer — no tolerance needed).
	hd, err := operator.Drain(1, aggservice.DrainHistogram, 0)
	if err != nil {
		log.Fatal(err)
	}
	want := map[uint32]float32{}
	for _, b := range mirrorHist.Bins() {
		if b.Count > 0 {
			want[uint32(b.Exp)] = float32(b.Count)
		}
	}
	if len(hd) != len(want) {
		log.Fatalf("histogram drain has %d bins, host mirror %d", len(hd), len(want))
	}
	for _, e := range hd {
		if want[e.Key] != e.Val {
			log.Fatalf("histogram bin 2^%d: drained %v, mirror %v", e.Key, e.Val, want[e.Key])
		}
	}
	fmt.Println("\npacket-size distribution (log2 bins, drained == host mirror):")
	fmt.Print(mirrorHist.String())

	stop.Store(true)
	trainWG.Wait()
	st, _ := sw.JobStats(1)
	fmt.Printf("telemetry tenant folded %d samples in %d batches; training ran %d allreduce rounds alongside\n",
		st.Adds, st.Completions, rounds.Load())
	if rounds.Load() == 0 {
		log.Fatal("training tenant made no progress while telemetry streamed")
	}
}
