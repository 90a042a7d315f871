// Allreduce: two tenant training jobs — four workers each — aggregate
// gradient vectors concurrently through ONE FPISA switch over real UDP
// sockets on loopback. This is the paper's distributed-training use case
// (§5) end to end under multi-job tenancy: one protocol round per job,
// no host-side quantization state, and per-job slot partitions plus stats
// keeping the tenants fully isolated.
//
// The two tenants negotiate DIFFERENT numeric profiles at admission: job 0
// runs guarded round-to-nearest f32 (full-fidelity payloads, two guard
// bits against swamping), job 1 runs truncating bfloat16 — halving its ADD
// payload on the same switch, through the same slot pools, in the same
// protocol round. Weights share pipeline time; profiles share precision.
package main

import (
	"fmt"
	"log"
	"sync"
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
		jobs    = 2
		workers = 4 // per job
		vecLen  = 256
	)
	profiles := []core.NumericProfile{
		{Format: core.FormatF32, Guard: 2, Rounding: core.RoundingRNE},
		{Format: core.FormatBF16},
	}
	cfg := aggservice.Config{
		Workers: workers, Pool: 8, Modules: 1, Shards: 4, Jobs: jobs,
		Profiles: profiles,
		Mode:     core.ModeApprox, Arch: pisa.BaseArch(),
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
	fmt.Printf("FPISA switch on %s (%d pipeline shards), %d jobs x %d workers, vector length %d\n",
		fab.SwitchAddr(), sw.Shards(), jobs, workers, vecLen)
	for j := 0; j < jobs; j++ {
		add := aggservice.EncodeAddProfile(j, 0, 0, profiles[j], make([]float32, cfg.Modules))
		fmt.Printf("  job %d speaks %s: %d-byte ADDs (%d value bytes/element)\n",
			j, profiles[j], len(add), profiles[j].ValueBytes())
	}

	// Distinct gradient statistics per tenant (paper §5.1 profiles).
	jobVecs := [jobs][][]float32{
		gradients.NewGenerator(gradients.VGG19, 1).WorkerGradients(workers, vecLen),
		gradients.NewGenerator(gradients.ResNet50, 2).WorkerGradients(workers, vecLen),
	}

	var results [jobs][][]float32
	var wks [jobs][]*aggservice.Worker
	for j := range results {
		results[j] = make([][]float32, workers)
		wks[j] = make([]*aggservice.Worker, workers)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for j := 0; j < jobs; j++ {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(j, w int) {
				defer wg.Done()
				wk := aggservice.NewJobWorker(j, w, fab, cfg)
				wk.Timeout = 100 * time.Millisecond
				wks[j][w] = wk
				out, err := wk.Reduce(jobVecs[j][w])
				if err != nil {
					log.Fatalf("job %d worker %d: %v", j, w, err)
				}
				results[j][w] = out
			}(j, w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	fmt.Printf("both jobs reduced %d elements each in %v over one shared switch\n",
		vecLen, elapsed.Round(time.Millisecond))
	for j := 0; j < jobs; j++ {
		var pkts, dgrams uint64
		largest := 0
		for _, wk := range wks[j] {
			pkts += wk.SentPackets
			dgrams += wk.SentDatagrams
			largest = max(largest, wk.LastBatch)
		}
		fmt.Printf("job %d send vectors: %d ADDs in %d vectors (%.1f chunks/vector, largest %d)\n",
			j, pkts, dgrams, float64(pkts)/float64(max(dgrams, 1)), largest)
	}

	for j := 0; j < jobs; j++ {
		exact := gradients.AggregateExact(jobVecs[j])
		errs := make([]float64, len(exact))
		large := 0
		for i := range exact {
			errs[i] = abs(float64(results[j][0][i]) - exact[i])
			if errs[i] > 1e-3 {
				large++
			}
		}
		st, _ := sw.JobStats(j)
		fmt.Printf("job %d (%s): adds=%d retrans=%d chunks=%d | element 0: %g (exact %.8g)\n",
			j, st.Profile, st.Adds, st.Retransmits, st.Completions, results[j][0][0], exact[0])
		// Job 0's rare large errors are FPISA-A overwrite sites (§4.3);
		// job 1's error floor is its own choice — bfloat16 quantization,
		// the precision it traded for half-width payloads.
		fmt.Printf("job %d: median |error| %.3g vs float64 exact; %d/%d elements above 1e-3\n",
			j, stats.Median(errs), large, len(exact))
	}
	adds, dups, completions := sw.Stats()
	fmt.Printf("switch totals: adds=%d dups=%d chunks=%d — per-job ledgers above sum to these\n",
		adds, dups, completions)
	// The wire-syscall ledger: how many kernel entries the whole run cost,
	// and how many datagrams each one moved — the kernel-batching win the
	// sendmmsg/recvmmsg backend buys over one syscall per datagram.
	ss := fab.SyscallStats()
	fmt.Printf("wire I/O (%s): %d syscalls moved %d datagrams — %.2f datagrams/syscall (sendmmsg=%d recvmmsg=%d fallback=%d sendErrors=%d)\n",
		fab.Backend(), ss.Syscalls(), ss.SentDatagrams+ss.RecvDatagrams, ss.DatagramsPerSyscall(),
		ss.Sendmmsg, ss.Recvmmsg, ss.SendFallback+ss.RecvFallback, ss.SendErrors)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
