// Churn: the runtime job lifecycle control plane end to end. One FPISA
// switch serves a long-lived training job (job 0) over real UDP sockets
// while an operator admits and evicts other jobs mid-flight through the
// out-of-band observer frame — the switch is never restarted, job 0's
// all-reduce never stalls, and an evicted tenant's slots, caches and
// registers are dropped with its incarnation (watch the epoch of a
// re-admitted id advance). A final eviction lands mid-reduce to show workers surfacing
// ErrJobEvicted instead of retransmitting forever.
//
// The churn tenants are admitted as WEIGHTED jobs (-weight, default 4):
// each admit carries a deficit-round-robin scheduler weight the switch
// echoes in its ack, so while they run alongside the long-lived job 0
// (weight 1) their new-chunk binds get -weight shares of pipeline time.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
	"fpisa/internal/gradients"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

const (
	workers = 3 // per job
	vecLen  = 512
)

func main() {
	weight := flag.Int("weight", 4, "fair-scheduler weight for the churn tenants (job 0 keeps weight 1)")
	flag.Parse()
	cfg := aggservice.Config{
		Workers: workers, Pool: 4, Modules: 1, Shards: 4,
		Jobs: 1, Capacity: 3, Dynamic: true,
		DrainTimeout: 500 * time.Millisecond,
		Mode:         core.ModeApprox, Arch: pisa.BaseArch(),
	}
	sw, err := aggservice.NewSwitch(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sw.OnLifecycle = func(job int, ev aggservice.LifecycleEvent) {
		if ev == aggservice.EventEvicted {
			fmt.Printf("  [switch] job %d %s — its slots went with the incarnation, next epoch %d\n", job, ev, sw.JobEpoch(job))
			return
		}
		fmt.Printf("  [switch] job %d %s — epoch %d\n", job, ev, sw.JobEpoch(job))
	}
	fab, err := transport.NewUDP(cfg.Ports(), sw.HandleBatch)
	if err != nil {
		log.Fatal(err)
	}
	defer fab.Close()
	fmt.Printf("FPISA switch on %s: %d shards, capacity %d jobs x %d workers, dynamic lifecycle on\n",
		fab.SwitchAddr(), sw.Shards(), sw.Jobs(), workers)

	// The operator's control path: observer-framed datagrams to the same
	// switch socket, exactly what `fpisa-query -admit/-evict` sends. The
	// ack echoes the job's incarnation epoch — the octet the admitted
	// job's workers must stamp into their ADDs.
	operator := aggservice.Observer{Addr: fab.SwitchAddr().String()}

	// An incarnation's workers are built once and serve all its reduces:
	// each Reduce continues the job's chunk stream.
	workersOf := func(job int, epoch uint8) []*aggservice.Worker {
		wks := make([]*aggservice.Worker, workers)
		for w := range wks {
			wks[w] = aggservice.NewJobWorker(job, w, fab, cfg)
			wks[w].Timeout = 50 * time.Millisecond
			wks[w].Epoch = epoch
		}
		return wks
	}
	reduce := func(wks []*aggservice.Worker, vecs [][]float32) ([][]float32, []error) {
		out := make([][]float32, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w, wk := range wks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[w], errs[w] = wk.Reduce(vecs[w])
			}()
		}
		wg.Wait()
		return out, errs
	}
	admit := func(job int) uint8 {
		// The admit names the tenant's scheduler weight; the ack echoes the
		// weight the switch applied alongside the incarnation epoch — both
		// are what the operator hands to the job's workers.
		ack, err := operator.Admit(job, aggservice.JobSpec{Weight: *weight})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  [operator] admit job %d: %v (weight %d, epoch %d)\n", job, ack.Status, ack.Weight, ack.Epoch)
		return ack.Epoch
	}
	evict := func(job int) {
		ack, err := operator.Evict(job)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  [operator] evict job %d: %v\n", job, ack.Status)
	}

	// Job 0: the long-lived tenant, reducing throughout the churn below.
	vecs0 := gradients.NewGenerator(gradients.VGG19, 1).WorkerGradients(workers, vecLen)
	var results0 [][]float32
	var errs0 []error
	done0 := make(chan struct{})
	go func() {
		defer close(done0)
		results0, errs0 = reduce(workersOf(0, 0), vecs0)
	}()

	// Churn: admit job 1, reduce, evict it; job 2 then joins the capacity
	// it vacated — no restart, no disturbance to job 0.
	fmt.Println("\n-- admit job 1 while job 0 reduces --")
	epoch1 := admit(1)
	vecs1 := gradients.NewGenerator(gradients.ResNet50, 2).WorkerGradients(workers, 128)
	if _, errs := reduce(workersOf(1, epoch1), vecs1); firstErr(errs) != nil {
		log.Fatalf("job 1: %v", firstErr(errs))
	}
	st1, _ := sw.JobStats(1)
	fmt.Printf("  job 1 reduced 128 elements: adds=%d chunks=%d cacheBytes=%d\n",
		st1.Adds, st1.Completions, st1.CacheBytes)
	evict(1)

	fmt.Println("\n-- admit job 2 after job 1 left --")
	epoch2 := admit(2)
	workers2 := workersOf(2, epoch2)
	vecs2 := gradients.NewGenerator(gradients.BERT, 3).WorkerGradients(workers, 128)
	if _, errs := reduce(workers2, vecs2); firstErr(errs) != nil {
		log.Fatalf("job 2: %v", firstErr(errs))
	}
	fmt.Println("  job 2 reduced 128 elements on fresh slots of its own")

	// Evict job 2 during its next reduce: its workers learn through
	// AckDraining notices and fail fast with ErrJobEvicted.
	fmt.Println("\n-- evict job 2 mid-reduce --")
	bigVecs := gradients.NewGenerator(gradients.BERT, 4).WorkerGradients(workers, 100_000)
	st2, _ := sw.JobStats(2)
	evicted := make(chan []error, 1)
	go func() {
		_, errs := reduce(workers2, bigVecs)
		evicted <- errs
	}()
	for { // wait until the reduce is demonstrably in flight
		if st, _ := sw.JobStats(2); st.Completions > st2.Completions {
			break
		}
		time.Sleep(time.Millisecond)
	}
	evict(2)
	for _, err := range <-evicted {
		fmt.Printf("  reduce aborted: %v (ErrJobEvicted: %v)\n", err, errors.Is(err, aggservice.ErrJobEvicted))
	}

	// Re-admit job 2: the new incarnation's epoch makes any datagram still
	// buffered from the evicted incarnation visibly stale — the wire-epoch
	// fix for the limitation the old doc.go documented.
	fmt.Println("\n-- re-admit job 2: stale datagrams from the old incarnation bounce --")
	for sw.JobPhaseOf(2) != aggservice.PhaseVacant {
		time.Sleep(5 * time.Millisecond) // let the drain release the range
	}
	epoch2b := admit(2)
	wkStale := aggservice.NewJobWorker(2, 0, fab, cfg)
	wkStale.Epoch = epoch2 // the evicted incarnation's octet
	wkStale.Timeout = 20 * time.Millisecond
	wkStale.Retries = 2
	if _, err := wkStale.Reduce(vecs2[0]); errors.Is(err, aggservice.ErrJobEvicted) {
		fmt.Printf("  stale epoch-%d worker refused: %v\n", epoch2, err)
	}
	staleRejects := sw.Rejects().Stale
	fmt.Printf("  switch counted %d stale ADDs; fresh epoch is %d\n", staleRejects, epoch2b)

	// Job 0 sailed through all of it.
	<-done0
	if err := firstErr(errs0); err != nil {
		log.Fatalf("job 0: %v", err)
	}
	exact := gradients.AggregateExact(vecs0)
	worst := 0.0
	for i := range exact {
		if d := abs(float64(results0[0][i]) - exact[i]); d > worst {
			worst = d
		}
	}
	st0, _ := sw.JobStats(0)
	fmt.Printf("\njob 0 finished untouched: adds=%d chunks=%d, worst |error| %.3g vs exact\n",
		st0.Adds, st0.Completions, worst)
	r := sw.Rejects()
	fmt.Printf("rejects: crossJob=%d (must be 0), draining=%d (job 2's refused binds), badJob=%d (stragglers after eviction), backpressure=%d (fair-scheduler defers)\n",
		r.CrossJob, r.Draining, r.BadJob, r.Backpressure)
	if r.CrossJob != 0 {
		log.Fatal("tenant isolation violated")
	}
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
