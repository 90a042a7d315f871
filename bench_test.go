package fpisa

// One benchmark per paper table/figure (the artifacts cmd/fpisa-bench's
// experiment list regenerates) plus ablations on the design choices. The
// benchmarks measure the regeneration cost of each artifact and, via
// ReportMetric, surface the artifact's headline number so `go test -bench .
// -benchmem` doubles as a summary of the reproduction.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/banzai"
	"fpisa/internal/core"
	"fpisa/internal/gradients"
	"fpisa/internal/payload"
	"fpisa/internal/perfmodel"
	"fpisa/internal/pisa"
	"fpisa/internal/query"
	"fpisa/internal/tcam"
	"fpisa/internal/train"
	"fpisa/internal/transport"
)

// BenchmarkTable1_ALUSynthesis regenerates the synthesis cost model.
func BenchmarkTable1_ALUSynthesis(b *testing.B) {
	var area float64
	for i := 0; i < b.N; i++ {
		rs := banzai.Table1()
		area = rs[len(rs)-1].AreaUM2
	}
	b.ReportMetric(area, "FPU-um2")
}

// BenchmarkTable3_ResourceUtilization compiles the FPISA-A program for the
// base architecture and reports the headline VLIW pressure.
func BenchmarkTable3_ResourceUtilization(b *testing.B) {
	var maxVliw float64
	for i := 0; i < b.N; i++ {
		pa, err := core.NewPipelineAggregator(core.DefaultFP32(core.ModeApprox), 1, 256, pisa.BaseArch())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range pa.Utilization().Rows() {
			if r.Resource == "VLIW instruction slots" {
				maxVliw = r.MaxStagePct
			}
		}
	}
	b.ReportMetric(maxVliw, "maxVLIW-%")
}

// BenchmarkFigure6_EndiannessConversion measures the FP32 payload byte-swap
// kernel — the per-core cost Fig. 6 quantifies.
func BenchmarkFigure6_EndiannessConversion(b *testing.B) {
	buf := make([]byte, 1<<16)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload.SwapBytes32(buf)
	}
	elemsPerSec := float64(b.N) * float64(len(buf)/4) / b.Elapsed().Seconds()
	b.ReportMetric(elemsPerSec/1e9, "Gconv/s")
	b.ReportMetric(payload.DesiredRatePerSec(100, 4)/1e9, "needed-G/s")
}

// BenchmarkFigure6_FP16 measures the FP16 swap kernel (the worst gap).
func BenchmarkFigure6_FP16(b *testing.B) {
	buf := make([]byte, 1<<16)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload.SwapBytes16(buf)
	}
	elemsPerSec := float64(b.N) * float64(len(buf)/2) / b.Elapsed().Seconds()
	b.ReportMetric(float64(payload.CoresForLineRate(100, 2, elemsPerSec)), "cores-for-100G")
}

// BenchmarkFigure7_GradientRatioDistribution regenerates the max/min ratio
// histogram and reports the below-2^7 fraction.
func BenchmarkFigure7_GradientRatioDistribution(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		g := gradients.NewGenerator(gradients.VGG19, 42)
		h := gradients.RatioHistogram(g.WorkerGradients(8, 10000))
		frac = h.FractionBelow(7)
	}
	b.ReportMetric(frac*100, "pct-under-2^7")
}

// BenchmarkFigure8_ErrorDistribution regenerates the FPISA-A error
// histogram and reports the overwrite-error share.
func BenchmarkFigure8_ErrorDistribution(b *testing.B) {
	g := gradients.NewGenerator(gradients.VGG19, 42)
	ws := g.WorkerGradients(8, 10000)
	var share float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := gradients.ErrorDistribution(core.DefaultFP32(core.ModeApprox), ws)
		if err != nil {
			b.Fatal(err)
		}
		share = rep.OverwriteShare
	}
	b.ReportMetric(share*100, "overwrite-%")
}

// BenchmarkFigure9_Convergence runs a reduced-epoch training pair and
// reports the accuracy gap between default and FPISA-A aggregation.
func BenchmarkFigure9_Convergence(b *testing.B) {
	trainSet, testSet := train.SyntheticDataset(512, 256, 12, 4, 3)
	cfg := train.DefaultSGD()
	cfg.Epochs = 6
	arch := train.Fig9Architectures()[1]
	var gap float64
	for i := 0; i < b.N; i++ {
		exact, err := train.Run(arch, trainSet, testSet, cfg, train.ExactReducer{})
		if err != nil {
			b.Fatal(err)
		}
		fp, err := train.Run(arch, trainSet, testSet, cfg, train.FPISAReducer{Cfg: core.DefaultFP32(core.ModeApprox)})
		if err != nil {
			b.Fatal(err)
		}
		gap = exact.Final - fp.Final
		if gap < 0 {
			gap = -gap
		}
	}
	b.ReportMetric(gap*100, "accuracy-gap-pct")
}

// BenchmarkFigure10_Goodput evaluates the goodput model over both sweeps.
func BenchmarkFigure10_Goodput(b *testing.B) {
	r := perfmodel.DefaultRates()
	var got float64
	for i := 0; i < b.N; i++ {
		_ = perfmodel.Fig10Left(r, 10)
		_ = perfmodel.Fig10Right(r, perfmodel.Fig10Sizes())
		got = r.Goodput(perfmodel.FPISACPUOpt, 1, 16<<10)
	}
	b.ReportMetric(got, "opt-1core-Gbps")
}

// BenchmarkFigure11_TrainingSpeedup evaluates the end-to-end model.
func BenchmarkFigure11_TrainingSpeedup(b *testing.B) {
	var dl float64
	for i := 0; i < b.N; i++ {
		for _, s := range perfmodel.Fig11(2) {
			if s.Model == "DeepLight" {
				dl = s.SpeedupPct
			}
		}
	}
	b.ReportMetric(dl, "DeepLight-2core-pct")
}

// BenchmarkFigure13_Queries runs all five queries through both plans.
func BenchmarkFigure13_Queries(b *testing.B) {
	e := query.NewEngine(query.Generate(query.DefaultScale(), 2, 7))
	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range query.Queries() {
			_, bc := e.RunBaseline(q)
			_, sc, err := e.RunSwitch(q)
			if err != nil {
				b.Fatal(err)
			}
			speedup = bc.BaselineSeconds(2) / sc.SwitchSeconds(2)
		}
	}
	b.ReportMetric(speedup, "last-speedup-x")
}

// BenchmarkAppendixA_AdvancedOps exercises the lookup-table float ops.
func BenchmarkAppendixA_AdvancedOps(b *testing.B) {
	lt, _ := core.NewLog2Table(10)
	st, _ := core.NewSqrtTable(10)
	mt, _ := core.NewMulTable(8)
	x := float32(3.7)
	var sink float32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += lt.Log2(x) + st.Sqrt(x) + mt.Mul(x, x) + core.MulExponentAdd(x, x)
	}
	_ = sink
}

// --- Ablations --------------------------------

// BenchmarkAblationGuardBits quantifies read-out error vs guard bits — the
// Appendix A.1 rounding design choice.
func BenchmarkAblationGuardBits(b *testing.B) {
	g := gradients.NewGenerator(gradients.VGG19, 42)
	ws := g.WorkerGradients(8, 2000)
	for _, guard := range []uint8{0, 2, 4} {
		cfg := core.DefaultFP32(core.ModeApprox)
		cfg.Profile.Guard = guard
		if guard > 0 {
			cfg.Profile.Rounding = core.RoundingRNE
		}
		b.Run(map[uint8]string{0: "g0-trunc", 2: "g2-rne", 4: "g4-rne"}[guard], func(b *testing.B) {
			var med float64
			for i := 0; i < b.N; i++ {
				rep, err := gradients.ErrorDistribution(cfg, ws)
				if err != nil {
					b.Fatal(err)
				}
				med = rep.MedianError
			}
			b.ReportMetric(med*1e9, "median-err-1e-9")
		})
	}
}

// BenchmarkAblationLPMvsDirectCLZ compares the Fig. 5 table-based
// count-leading-zeros against a direct instruction — the hardware gap
// FPISA works around.
func BenchmarkAblationLPMvsDirectCLZ(b *testing.B) {
	clz := tcam.MustNewCLZ(32)
	b.Run("lpm-table", func(b *testing.B) {
		var s int
		for i := 0; i < b.N; i++ {
			s += clz.Count(uint64(uint32(i)*2654435761 + 1))
		}
		_ = s
	})
	b.Run("direct", func(b *testing.B) {
		var s int
		for i := 0; i < b.N; i++ {
			s += leadingZeros32(uint32(i)*2654435761 + 1)
		}
		_ = s
	})
}

func leadingZeros32(x uint32) int {
	n := 0
	for x&0x80000000 == 0 && n < 32 {
		x <<= 1
		n++
	}
	return n
}

// BenchmarkAblationQuantizeVsCopy contrasts SwitchML's per-element host
// work with FPISA's — the root cause of the Fig. 10 core-count gap.
func BenchmarkAblationQuantizeVsCopy(b *testing.B) {
	src := make([]float32, 4096)
	rng := rand.New(rand.NewSource(2))
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	wire := make([]byte, 4*len(src))
	scale := payload.ScaleExpFor(payload.MaxBiasedExp(src), 8)

	b.Run("switchml-quantize", func(b *testing.B) {
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			if err := payload.QuantizeToWire(wire, src, scale); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fpisa-serialize", func(b *testing.B) {
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			if err := payload.FloatsToWire(wire, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fpisa-opt-copy", func(b *testing.B) {
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			if err := payload.CopyWire(wire, src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// addLoop is one benchmark goroutine's reused ADDs, one per job, each
// encoded once and renumbered in place, and the one-packet vector and
// delivery list it hands the switch — recycled the way a fabric recycles
// them, so the measured loop allocates nothing of its own.
type addLoop struct {
	adds [][]byte
	vec  [][]byte
	dl   transport.DeliveryList
}

func newAddLoop(jobs int, prof core.NumericProfile, vals []float32) *addLoop {
	l := &addLoop{vec: make([][]byte, 1)}
	for j := 0; j < jobs; j++ {
		l.adds = append(l.adds, aggservice.EncodeAddProfile(j, 0, 0, prof, vals))
	}
	return l
}

// handle drives job's ADD of chunk through the switch's vectored handler
// from port worker.
func (l *addLoop) handle(sw *aggservice.Switch, worker, job int, chunk uint32) {
	binary.BigEndian.PutUint32(l.adds[job][4:], chunk) // the ADD's chunk field
	l.vec[0] = l.adds[job]
	l.dl.Reset()
	sw.HandleBatch(worker, l.vec, &l.dl)
}

// BenchmarkShardedSwitch measures aggregation-service packet throughput
// as the shard count grows: every packet still runs the full FPISA
// pipeline simulation, but with N shards packets for different slots only
// contend on their own shard's lock, so on a multi-core host throughput
// scales with shards (GOMAXPROCS permitting) while a 1-shard switch
// serializes on its single mutex.
func BenchmarkShardedSwitch(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dshard", shards), func(b *testing.B) {
			cfg := aggservice.Config{Workers: 1, Pool: 512, Modules: 1, Shards: shards,
				Mode: core.ModeApprox, Arch: pisa.BaseArch()}
			sw, err := aggservice.NewSwitch(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				l := newAddLoop(1, core.DefaultProfile, []float32{1.5})
				for pb.Next() {
					l.handle(sw, 0, 0, uint32(next.Add(1)-1))
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
	// Profile variant: the same 8-shard switch, but the tenant negotiated
	// truncating bfloat16 at admission — half-width ADD values through the
	// per-range aggregator bank instead of the compiled default pipeline.
	b.Run("8shard-bf16", func(b *testing.B) {
		prof := core.NumericProfile{Format: core.FormatBF16}
		cfg := aggservice.Config{Workers: 1, Pool: 512, Modules: 1, Shards: 8,
			Profiles: []core.NumericProfile{prof},
			Mode:     core.ModeApprox, Arch: pisa.BaseArch()}
		sw, err := aggservice.NewSwitch(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var next atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			l := newAddLoop(1, prof, []float32{1.5})
			for pb.Next() {
				l.handle(sw, 0, 0, uint32(next.Add(1)-1))
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
	})
}

// BenchmarkFabricThroughput measures raw fabric packet throughput at 8
// workers over the ring-backed vectored path (SendBatch/RecvBatch with
// reusable buffers). The handler answers every request with a canned
// immutable reply, so the numbers isolate fabric overhead.
func BenchmarkFabricThroughput(b *testing.B) {
	const (
		workers  = 8
		batch    = 32
		paySize  = 64
		ringSize = 4096
	)
	reply := make([]byte, paySize)
	reply[0] = 0xF2
	handler := func(w int, pkts [][]byte, out *transport.DeliveryList) {
		for range pkts {
			out.Unicast(w, reply)
		}
	}
	payload := make([]byte, paySize)
	run := func(b *testing.B, pktSize int, sendRecv func(fab *transport.Memory, w, n int)) {
		fab, err := transport.NewMemory(transport.MemoryConfig{
			Workers: workers, BatchHandler: handler, QueueDepth: ringSize,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer fab.Close()
		b.SetBytes(int64(pktSize))
		b.ResetTimer()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sendRecv(fab, w, b.N/workers)
			}(w)
		}
		wg.Wait()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		// The in-memory fabric crosses no kernel boundary; the explicit
		// zero keeps the syscalls/op column present for every fabric
		// benchmark, so CI's syscalls/op gate holds it at zero.
		b.ReportMetric(0, "syscalls/op")
	}

	b.Run("batched-ring", func(b *testing.B) {
		pkts := make([][]byte, batch)
		for i := range pkts {
			pkts[i] = payload
		}
		run(b, paySize, func(fab *transport.Memory, w, n int) {
			bufs := make([][]byte, batch)
			for i := 0; i < n; i += batch {
				if err := fab.SendBatch(w, pkts); err != nil {
					b.Error(err)
					return
				}
				for got := 0; got < batch; {
					k, err := fab.RecvBatch(w, bufs[got:], time.Second)
					if err != nil {
						b.Error(err)
						return
					}
					got += k
				}
			}
		})
	})
	// Profile-width variants: the vectored path carrying real wire ADDs
	// (8 modules) in f32 vs truncating bf16 — the 16-bit profile's halved
	// value payload shows up directly in the bytes moved per packet.
	for _, pv := range []struct {
		name string
		prof core.NumericProfile
	}{
		{"batched-ring-f32add", core.DefaultProfile},
		{"batched-ring-bf16add", core.NumericProfile{Format: core.FormatBF16}},
	} {
		b.Run(pv.name, func(b *testing.B) {
			add := aggservice.EncodeAddProfile(0, 0, 0, pv.prof, make([]float32, 8))
			pkts := make([][]byte, batch)
			for i := range pkts {
				pkts[i] = add
			}
			run(b, len(add), func(fab *transport.Memory, w, n int) {
				bufs := make([][]byte, batch)
				for i := 0; i < n; i += batch {
					if err := fab.SendBatch(w, pkts); err != nil {
						b.Error(err)
						return
					}
					for got := 0; got < batch; {
						k, err := fab.RecvBatch(w, bufs[got:], time.Second)
						if err != nil {
							b.Error(err)
							return
						}
						got += k
					}
				}
			})
		})
	}
}

// BenchmarkUDPFabricThroughput measures the UDP fabric over real loopback
// sockets at 8 workers × batch 16 with ~16 KiB packets (so each batch
// spans several wire datagrams and kernel batching has datagrams to
// batch): the sendmmsg/recvmmsg backend against the forced per-datagram
// loop. The headline metric is syscalls/op — kernel entries per packet,
// measured from the fabric's own SyscallStats across both halves of the
// round trip — alongside the achieved datagrams per syscall and allocs/op
// (the pooled read buffers must keep the steady state allocation-free).
// Loopback drops bursts under pressure, so lost replies are retransmitted
// rather than waited for; both backends run the identical loss loop.
func BenchmarkUDPFabricThroughput(b *testing.B) {
	const (
		workers = 8
		batch   = 16
		paySize = 16 << 10
	)
	payload := make([]byte, paySize)
	payload[0] = 0xF2
	reply := make([]byte, paySize)
	reply[0] = 0xF2
	handler := func(w int, pkts [][]byte, out *transport.DeliveryList) {
		for range pkts {
			out.Unicast(w, reply)
		}
	}
	for _, tc := range []struct {
		name string
		mode transport.MmsgMode
	}{
		{"mmsg", transport.MmsgOn},
		{"loop", transport.MmsgOff},
	} {
		b.Run(tc.name, func(b *testing.B) {
			fab, err := transport.NewUDP(workers, handler, transport.WithMmsg(tc.mode))
			if err != nil {
				b.Fatal(err)
			}
			defer fab.Close()
			fab.SetBuffers(4 << 20)
			pkts := make([][]byte, batch)
			for i := range pkts {
				pkts[i] = payload
			}
			b.SetBytes(paySize)
			b.ReportAllocs()
			before := fab.SyscallStats()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					bufs := make([][]byte, batch)
					for i := range bufs {
						bufs[i] = make([]byte, paySize+16)
					}
					n := b.N / workers
					for i := 0; i < n; i += batch {
						if err := fab.SendBatch(w, pkts); err != nil {
							b.Error(err)
							return
						}
						for got := 0; got < batch; {
							k, err := fab.RecvBatch(w, bufs[got:], 100*time.Millisecond)
							if err == transport.ErrTimeout {
								// The loopback queue dropped part of the
								// burst: retransmit the batch (surplus
								// replies are absorbed by later rounds).
								if err := fab.SendBatch(w, pkts); err != nil {
									b.Error(err)
									return
								}
								continue
							}
							if err != nil {
								b.Error(err)
								return
							}
							got += k
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			after := fab.SyscallStats()
			calls := after.Syscalls() - before.Syscalls()
			dgrams := (after.SentDatagrams + after.RecvDatagrams) -
				(before.SentDatagrams + before.RecvDatagrams)
			b.ReportMetric(float64(calls)/float64(b.N), "syscalls/op")
			if calls > 0 {
				b.ReportMetric(float64(dgrams)/float64(calls), "dgrams/syscall")
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkLossRecovery measures a full single-worker all-reduce through
// the vectored Memory fabric, on a clean path and under 10% injected
// uplink loss — the pkts/s the protocol sustains while the retransmit
// rounds recover every lost ADD.
func BenchmarkLossRecovery(b *testing.B) {
	for _, tc := range []struct {
		name string
		loss float64
	}{
		{"clean", 0},
		{"loss10", 0.10},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := aggservice.Config{Workers: 1, Pool: 64, Modules: 1, Shards: 4,
				Mode: core.ModeApprox, Arch: pisa.BaseArch()}
			vec := make([]float32, 4096)
			for i := range vec {
				vec[i] = float32(i%13) * 0.5
			}
			var pkts uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer() // switch construction is not the protocol cost
				sw, err := aggservice.NewSwitch(cfg)
				if err != nil {
					b.Fatal(err)
				}
				fab, err := transport.NewMemory(transport.MemoryConfig{
					Workers: 1, BatchHandler: sw.HandleBatch,
					UplinkLoss: tc.loss, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				w := aggservice.NewWorker(0, fab, cfg)
				w.Timeout = 2 * time.Millisecond
				w.Retries = 100_000
				b.StartTimer()
				if _, err := w.Reduce(vec); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				pkts += w.SentPackets
				fab.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(pkts)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkMultiJobSwitch measures tenancy overhead: the same packet load
// spread across N jobs sharing one sharded switch. Per-job slot partitions
// keep the shard math identical, so throughput should hold as jobs grow —
// each job's counters live in its own per-shard blocks.
func BenchmarkMultiJobSwitch(b *testing.B) {
	for _, jobs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%djob", jobs), func(b *testing.B) {
			cfg := aggservice.Config{Workers: 1, Pool: 256, Modules: 1, Shards: 8, Jobs: jobs,
				Mode: core.ModeApprox, Arch: pisa.BaseArch()}
			sw, err := aggservice.NewSwitch(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				l := newAddLoop(jobs, core.DefaultProfile, []float32{1.5})
				for pb.Next() {
					n := next.Add(1) - 1
					job := int(n) % jobs
					l.handle(sw, cfg.Port(job, 0), job, uint32(n)/uint32(jobs))
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkAblationModulesPerPipeline measures multi-module packet
// processing on the extended architecture (§4.2's throughput unlock).
func BenchmarkAblationModulesPerPipeline(b *testing.B) {
	for _, modules := range []int{1, 3} {
		arch := pisa.ExtendedArch()
		b.Run(map[int]string{1: "1-module", 3: "3-modules"}[modules], func(b *testing.B) {
			pa, err := core.NewPipelineAggregator(core.DefaultFP32(core.ModeApprox), modules, 16, arch)
			if err != nil {
				b.Fatal(err)
			}
			vals := make([]float32, modules)
			for i := range vals {
				vals[i] = 1.25
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pa.Add(i&15, vals); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(modules)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
		})
	}
}
