// Tree: a 2-level aggregation hierarchy over real UDP sockets — two leaf
// switches (3 workers each) feeding one spine, the topology FPISA's
// multi-rack deployments compose (§5 scale-out: rack switches aggregate
// their hosts, the spine aggregates the racks).
//
// Each leaf runs the full switch pipeline on its own socket; a completed
// chunk is not released to the leaf's workers but re-emitted UPWARD as an
// ADD on the leaf's uplink (the leaf dials the spine exactly like a
// worker), and only the spine's aggregate fans back down. The demo proves
// the tree transparent: running in full-FPISA mode on a dyadic-grid
// gradient (every partial sum exact in f32), the 6 workers' tree results
// are BIT-IDENTICAL to one flat 6-worker switch reducing the same
// vectors.
//
// One incarnation serves many reduces: the same six Workers run two
// consecutive all-reduces, each continuing the job's chunk stream at every
// level, and both match the flat switch. The lifecycle is plumbed through
// the hierarchy too. The centerpiece: an operator evicts the job at the
// SPINE mid-reduce, the eviction propagates down the uplinks
// (epoch-matched lifecycle notices bounce the leaves' pending aggregates,
// each leaf drains and drops its slots), the workers surface
// ErrJobEvicted, and after re-admission at the leaves — which negotiates
// the job back up the tree, a fresh stream at every level — new Workers'
// re-run again matches the flat switch bit for bit.
package main

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

const (
	nLeaves = 2
	workers = 3 // per leaf
	vecLen  = 2048
)

// gridVecs builds gradients on the 2^-10 dyadic grid with |v| < 1: sums
// of a few thousand such values are exactly representable in f32, so
// addition is association-independent and the tree's different summation
// order cannot change a single bit.
func gridVecs(n, vecLen, salt int) [][]float32 {
	vecs := make([][]float32, n)
	for w := range vecs {
		vecs[w] = make([]float32, vecLen)
		for i := range vecs[w] {
			vecs[w][i] = float32((w*131+i*7+salt)%257-128) / 1024
		}
	}
	return vecs
}

func main() {
	leafCfg := aggservice.Config{
		Workers: workers, Pool: 8, Modules: 2, Shards: 4,
		Dynamic: true, DrainTimeout: 300 * time.Millisecond,
		Mode: core.ModeFull, Arch: pisa.ExtendedArch(),
	}
	spineCfg := aggservice.Config{
		Workers: nLeaves, Pool: 8, Modules: 2, Shards: 4, // the SAME pool: levels self-clock in lockstep
		Dynamic: true, DrainTimeout: 300 * time.Millisecond,
		Mode: core.ModeFull, Arch: pisa.ExtendedArch(),
	}

	// The spine is an UNCHANGED switch whose "workers" are the two leaves.
	spine, err := aggservice.NewSwitch(spineCfg)
	if err != nil {
		log.Fatal(err)
	}
	spine.OnLifecycle = func(job int, ev aggservice.LifecycleEvent) {
		fmt.Printf("  [spine] job %d %s\n", job, ev)
	}
	spineConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		log.Fatal(err)
	}
	defer spineConn.Close()
	spineSrv, err := transport.NewUDPServer(spineConn, spineCfg.Ports())
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = spineSrv.Serve(spine.HandleBatch) }()
	spineAddr := spineConn.LocalAddr().(*net.UDPAddr)

	// Each leaf serves its own socket and dials the spine as its uplink;
	// the leaf's initial job is negotiated at the spine during NewSwitch
	// (the first leaf admits it there, the second joins the live
	// incarnation). The leaf fabric doubles as the downlink Pusher: the
	// spine's aggregate is pushed to the leaf's workers asynchronously.
	leaves := make([]*aggservice.Switch, nLeaves)
	leafFabs := make([]*transport.UDP, nLeaves)
	for i := 0; i < nLeaves; i++ {
		i := i
		fab, err := transport.NewUDP(leafCfg.Ports(), func(w int, pkts [][]byte, out *transport.DeliveryList) {
			leaves[i].HandleBatch(w, pkts, out)
		})
		if err != nil {
			log.Fatal(err)
		}
		defer fab.Close()
		leafFabs[i] = fab
		upFab, err := transport.DialUDP(spineAddr, leafCfg.Ports()/leafCfg.Workers*nLeaves)
		if err != nil {
			log.Fatal(err)
		}
		defer upFab.Close()
		cfg := leafCfg
		cfg.Uplink = &aggservice.UplinkConfig{
			Fabric: upFab, LeafID: i, Leaves: nLeaves,
			Control: aggservice.Observer{Addr: spineAddr.String()},
			Push:    fab,
		}
		if leaves[i], err = aggservice.NewSwitch(cfg); err != nil {
			log.Fatal(err)
		}
		defer leaves[i].Close()
	}
	defer spine.Close()
	fmt.Printf("tree up: %d leaves x %d workers -> spine %s (full FPISA, pool %d at both levels)\n",
		nLeaves, workers, spineAddr, leafCfg.Pool)

	// Each leaf's workers share one socket, dialed once: worker processes
	// outlive the reduces, and so does each one's Worker.
	wfabs := make([]*transport.UDP, nLeaves)
	for li := range wfabs {
		if wfabs[li], err = transport.DialUDP(leafFabs[li].SwitchAddr(), leafCfg.Ports()); err != nil {
			log.Fatal(err)
		}
		defer wfabs[li].Close()
	}
	// newWorkers builds one incarnation's Workers (worker w of leaf li at
	// index li·workers + w, stamping its leaf's epoch); they start the
	// incarnation's chunk stream and every Reduce continues it.
	newWorkers := func(epochs [nLeaves]uint8) []*aggservice.Worker {
		wks := make([]*aggservice.Worker, nLeaves*workers)
		for i := range wks {
			li := i / workers
			wks[i] = aggservice.NewJobWorker(0, i%workers, wfabs[li], leafCfg)
			wks[i].Timeout = 50 * time.Millisecond
			wks[i].Retries = 500
			wks[i].Epoch = epochs[li]
		}
		return wks
	}
	// treeReduce drives one all-reduce across every leaf's workers.
	treeReduce := func(wks []*aggservice.Worker, vecs [][]float32) ([][]float32, []error) {
		out := make([][]float32, len(wks))
		errs := make([]error, len(wks))
		var wg sync.WaitGroup
		for i, wk := range wks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i], errs[i] = wk.Reduce(vecs[i])
			}()
		}
		wg.Wait()
		return out, errs
	}
	// flatReduce runs the reference: one switch, all six workers direct.
	flatReduce := func(vecs [][]float32) [][]float32 {
		flatCfg := leafCfg
		flatCfg.Workers = nLeaves * workers
		flatCfg.Uplink, flatCfg.Dynamic = nil, false
		flat, err := aggservice.NewSwitch(flatCfg)
		if err != nil {
			log.Fatal(err)
		}
		defer flat.Close()
		fab, err := transport.NewUDP(flatCfg.Ports(), flat.HandleBatch)
		if err != nil {
			log.Fatal(err)
		}
		defer fab.Close()
		out := make([][]float32, flatCfg.Workers)
		var wg sync.WaitGroup
		for w := 0; w < flatCfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wk := aggservice.NewJobWorker(0, w, fab, flatCfg)
				wk.Timeout = 50 * time.Millisecond
				wk.Retries = 500
				var err error
				if out[w], err = wk.Reduce(vecs[w]); err != nil {
					log.Fatalf("flat worker %d: %v", w, err)
				}
			}(w)
		}
		wg.Wait()
		return out
	}
	// allReduce runs one tree all-reduce that must succeed and match the
	// flat switch bit for bit.
	allReduce := func(what string, wks []*aggservice.Worker, vecs [][]float32) {
		tree, errs := treeReduce(wks, vecs)
		for i, err := range errs {
			if err != nil {
				log.Fatalf("%s: tree worker %d: %v", what, i, err)
			}
		}
		flat := flatReduce(vecs)
		for w := range tree {
			for i := range tree[w] {
				if tree[w][i] != flat[0][i] {
					log.Fatalf("%s: worker %d elem %d: tree %g, flat switch %g", what, w, i, tree[w][i], flat[0][i])
				}
			}
		}
	}

	fmt.Println("\n-- all-reduce through the tree vs one flat switch --")
	wks := newWorkers([nLeaves]uint8{0, 0})
	allReduce("first reduce", wks, gridVecs(nLeaves*workers, vecLen, 0))
	for i, l := range leaves {
		st, _ := l.JobStats(0)
		fmt.Printf("  leaf %d: chunks=%d uplink retransmits=%d coalesced result-chunks=%d\n",
			i, st.Completions, l.UplinkRetransmits(0), st.Coalesced)
	}
	spineSt, _ := spine.JobStats(0)
	fmt.Printf("  spine aggregated %d chunks from %d leaf ADDs each; results BIT-IDENTICAL to the flat switch\n",
		spineSt.Completions, nLeaves)

	fmt.Println("\n-- the same Workers reduce again on the same incarnation --")
	allReduce("second reduce", wks, gridVecs(nLeaves*workers, vecLen, 3))
	spineSt, _ = spine.JobStats(0)
	fmt.Printf("  spine at %d chunks, epoch %d: 2 consecutive reduces on one incarnation: BIT-IDENTICAL to the flat switch\n",
		spineSt.Completions, spine.JobEpoch(0))

	fmt.Println("\n-- evict the job at the SPINE mid-reduce: the tree drains top-down --")
	bigVecs := gridVecs(nLeaves*workers, 200_000, 1)
	aborted := make(chan []error, 1)
	go func() {
		_, errs := treeReduce(wks, bigVecs)
		aborted <- errs
	}()
	for { // wait until this reduce's aggregates are demonstrably crossing both levels
		if st, _ := spine.JobStats(0); st.Completions > spineSt.Completions {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ack, err := aggservice.Observer{Addr: spineAddr.String()}.Evict(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  [operator] evict job 0 at the spine: %v\n", ack.Status)
	nEvicted := 0
	for _, err := range <-aborted {
		if errors.Is(err, aggservice.ErrJobEvicted) {
			nEvicted++
		}
	}
	fmt.Printf("  %d/%d workers surfaced ErrJobEvicted; waiting for every level to drain...\n",
		nEvicted, nLeaves*workers)
	for _, s := range append([]*aggservice.Switch{spine}, leaves...) {
		for s.JobPhaseOf(0) != aggservice.PhaseVacant {
			time.Sleep(5 * time.Millisecond)
		}
	}
	pending := 0
	for _, l := range leaves {
		pending += l.UplinkPending(0)
	}
	fmt.Printf("  every level vacant, %d uplink chunks still owed (must be 0)\n", pending)

	// Re-admission at the leaves negotiates the job back up the tree — the
	// spine's incarnation is re-created by the first leaf and joined by the
	// second — and starts a fresh chunk stream at every level, served by a
	// fresh set of Workers.
	fmt.Println("\n-- re-admit and re-run: the tree survives the mid-run eviction --")
	var epochs [nLeaves]uint8
	for i, fab := range leafFabs {
		ack, err := aggservice.Observer{Addr: fab.SwitchAddr().String()}.Admit(0, aggservice.JobSpec{})
		if err != nil {
			log.Fatal(err)
		}
		epochs[i] = ack.Epoch
		fmt.Printf("  [operator] admit job 0 at leaf %d: %v (leaf epoch %d, spine epoch %d)\n",
			i, ack.Status, epochs[i], spine.JobEpoch(0))
	}
	allReduce("re-admitted reduce", newWorkers(epochs), gridVecs(nLeaves*workers, vecLen, 2))
	fmt.Println("  re-run after mid-tree eviction: BIT-IDENTICAL to the flat switch again")
}
