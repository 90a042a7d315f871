package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
	"fpisa/internal/transport"
)

// Probes are tight loops over one layer's public entry point, fed the
// packets of the workload under test: its modules per packet, numeric
// profile and switch architecture for the ADD path, and the generated
// tuple streams for the analytics path. Each returns costs per operation;
// the ledger multiplies them by the counts of a real trial.

// sink keeps probe results live so the compiler cannot drop the calls.
var sink any

const probeBatch = 8 // ADDs per vector: Worker.Reduce's default batch

// probeSet is every probe's output for one workload.
type probeSet struct {
	addEncode, resultDecode, runDecodePerChunk opCost
	tupleEncodePerRow, ackDecode, replyDecode  opCost

	pisa                                   opCost
	pisaEmitted, pisaRecirc, pisaRuntimeEr float64

	pipeAdd, pipeReadReset   opCost
	accumAdd, accumReadReset opCost
	replicate                opCost

	handleBatchPerAdd opCost
	replayPerAdd      opCost
	drainNS           map[aggservice.DrainKind]float64

	tupleAgg, tupleTopN, tupleTelemetry opCost // per row

	memPerPkt, udpLoopPerPkt, udpMmsgPerPkt opCost
	workerLoopPerChunk                      float64 // CPU ns

	loops  []loop
	closes []func()
	div    int // tests: run 1/div of every probe's iterations
}

// loop is one tight-loop probe: n calls of f per repetition, each call
// worth per operations, the fastest repetition's cost per operation kept
// in out.
type loop struct {
	out *opCost
	n   int
	per float64
	f   func()
}

func (p *probeSet) loop(out *opCost, n int, per float64, f func()) {
	p.loops = append(p.loops, loop{out, max(n/p.div, 20), per, f})
}

// runLoops warms every loop up, then times five rounds of all loops and
// keeps each loop's fastest repetition. Other tenants of the host only ever
// slow a repetition down, so the fastest is closest to the code's own cost;
// and because a round visits every loop, a slow stretch of the host lands
// on all layers alike instead of skewing the differences between them.
func (p *probeSet) runLoops() {
	for _, l := range p.loops {
		for i := 0; i < l.n/10+1; i++ {
			l.f()
		}
		*l.out = opCost{ns: math.Inf(1)}
	}
	var m0, m1 runtime.MemStats
	for round := 0; round < 5; round++ {
		for _, l := range p.loops {
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for i := 0; i < l.n; i++ {
				l.f()
			}
			el := time.Since(t0)
			runtime.ReadMemStats(&m1)
			ops := float64(l.n) * l.per
			if ns := float64(el.Nanoseconds()) / ops; ns < l.out.ns {
				*l.out = opCost{ns, float64(m1.Mallocs-m0.Mallocs) / ops, float64(m1.TotalAlloc-m0.TotalAlloc) / ops}
			}
		}
	}
}

// switchAdd and switchReadReset pick the core probe that matches the
// workload's profile: the compiled pipeline for the default profile, the
// accumulator model for any other.
func (p *probeSet) switchAdd(w *workload) opCost {
	if w.profile == core.DefaultProfile {
		return p.pipeAdd
	}
	return p.accumAdd
}

func (p *probeSet) switchReadReset(w *workload) opCost {
	if w.profile == core.DefaultProfile {
		return p.pipeReadReset
	}
	return p.accumReadReset
}

func runProbes(w *workload, seed int64, quick bool) (*probeSet, error) {
	p := &probeSet{div: 1}
	if quick {
		p.div = 50
	}
	defer func() {
		for _, c := range p.closes {
			c()
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float32, w.modules)
	for i := range vals {
		vals[i] = float32(1+rng.Intn(64)) / 256
	}
	negs := make([]float32, len(vals))
	for i, v := range vals {
		negs[i] = -v
	}
	signed := func(i int) []float32 {
		// Slot i%2pool sees +v then −v on alternate passes, so register
		// sums stay at v or 0 however long the probe runs.
		if i/(2*pool)%2 == 0 {
			return vals
		}
		return negs
	}

	// internal/pisa: raw FPISA packets through Switch.Process.
	pipe, err := core.NewPipelineAggregator(core.DefaultFP32(core.ModeApprox), w.modules, 2*pool, w.arch)
	if err != nil {
		return nil, err
	}
	pkts := make([][]byte, 4*pool)
	for i := range pkts {
		if pkts[i], err = pipe.Packet(core.PktAdd, uint32(i%(2*pool)), signed(i)); err != nil {
			return nil, err
		}
	}
	sent := 0
	p.loop(&p.pisa, 20000, 1, func() {
		out, err := pipe.Switch().Process(1, pkts[sent%len(pkts)])
		if err != nil {
			panic(err)
		}
		sent++
		sink = out
	})

	// internal/core: both aggregator backends behind ProfileAggregator.
	for _, b := range []struct {
		prof    core.NumericProfile
		n       int
		add, rr *opCost
	}{
		{core.DefaultProfile, 20000, &p.pipeAdd, &p.pipeReadReset},
		{bf16Trunc, 400000, &p.accumAdd, &p.accumReadReset},
	} {
		agg, err := core.NewProfileAggregator(b.prof, core.ModeApprox, w.modules, 2*pool, w.arch)
		if err != nil {
			return nil, err
		}
		adds, reads := 0, 0
		p.loop(b.add, b.n, 1, func() {
			r, err := agg.Add(adds%(2*pool), signed(adds))
			if err != nil {
				panic(err)
			}
			adds++
			sink = r
		})
		p.loop(b.rr, b.n, 1, func() {
			r, err := agg.ReadReset(reads % (2 * pool))
			if err != nil {
				panic(err)
			}
			reads++
			sink = r
		})
		if b.prof == w.profile {
			p.loop(&p.replicate, 200, 1, func() { sink = agg.Replicate() })
		}
	}

	if err := p.probeSwitch(w, vals); err != nil {
		return nil, err
	}
	if err := p.probeAnalytics(w, rng); err != nil {
		return nil, err
	}
	if err := p.probeTransport(w); err != nil {
		return nil, err
	}
	c0 := pipe.Switch().Counters()
	p.runLoops()
	c1 := pipe.Switch().Counters()
	recv := float64(c1.Received - c0.Received)
	p.pisaEmitted = float64(c1.Emitted-c0.Emitted) / recv
	p.pisaRecirc = float64(c1.Recirculated-c0.Recirculated) / recv
	p.pisaRuntimeEr = float64(c1.RuntimeErrors - c0.RuntimeErrors)
	return p, p.probeWorkerLoop(w, rng)
}

// probeSwitch drives ADD vectors straight into Switch.HandleBatch, the two
// workers' vectors alternating so every chunk completes, and replays the
// last completed vector against the result cache. It also sets up the ADD
// and RESULT codec loops on the packets it built and received.
func (p *probeSet) probeSwitch(w *workload, vals []float32) error {
	cfg := aggservice.Config{
		Workers: lanes, Pool: pool, Modules: w.modules, Shards: shards,
		Profiles: []core.NumericProfile{w.profile}, Mode: core.ModeApprox, Arch: w.arch,
	}
	sw, err := aggservice.NewSwitch(cfg)
	if err != nil {
		return err
	}
	p.closes = append(p.closes, sw.Close)

	var dl transport.DeliveryList
	chunk := uint32(0)
	vec := make([][]byte, probeBatch)
	for k := range vec {
		vec[k] = aggservice.EncodeAddProfile(0, 0, 0, w.profile, vals)
	}
	// complete numbers the vector's ADDs with the next probeBatch chunks
	// (the chunk field sits at offset 4) and sends it from both workers;
	// the second worker's copy completes them all.
	complete := func() {
		for k := range vec {
			binary.BigEndian.PutUint32(vec[k][4:], chunk)
			chunk++
		}
		for port := 0; port < lanes; port++ {
			dl.Reset()
			sw.HandleBatch(port, vec, &dl)
		}
	}
	replay := func() {
		dl.Reset()
		sw.HandleBatch(0, vec, &dl)
	}
	var result, run []byte
	complete()
	for _, d := range dl.Deliveries() {
		if d.Packet[1] == aggservice.MsgResultRun {
			run = d.Packet
		}
	}
	replay()
	if dl.Len() > 0 {
		result = dl.Deliveries()[0].Packet
	}
	if result == nil || result[1] != aggservice.MsgResult || run == nil {
		return fmt.Errorf("probe: switch returned no RESULT and RESULT RUN to decode")
	}

	encoded := uint32(0)
	p.loop(&p.addEncode, 200000, 1, func() {
		sink = aggservice.EncodeAddProfile(0, encoded, 0, w.profile, vals)
		encoded++
	})
	p.loop(&p.handleBatchPerAdd, 1000, lanes*probeBatch, complete)
	p.loop(&p.replayPerAdd, 2000, probeBatch, replay)
	p.loop(&p.resultDecode, 200000, 1, func() {
		_, _, v, _, err := aggservice.DecodeResultProfile(result, w.modules, w.profile)
		if err != nil {
			panic(err)
		}
		sink = v
	})
	p.loop(&p.runDecodePerChunk, 50000, probeBatch, func() {
		_, _, v, _, err := aggservice.DecodeResultRun(run, w.modules, w.profile)
		if err != nil {
			panic(err)
		}
		sink = v
	})
	return nil
}

// probeAnalytics replays a few generated intervals of both tenants,
// single-threaded, into Switch.HandleBatch, timing every drain by kind, then
// sets up one loop per tuple op over those intervals' batches (renumbered
// in place: the sequence field sits at offset 4) and the tuple codec loops.
func (p *probeSet) probeAnalytics(w *workload, rng *rand.Rand) error {
	aw := *findWorkload("analytics-mem")
	aw.arch = w.arch
	e, err := aw.build(nil)
	if err != nil {
		return err
	}
	p.closes = append(p.closes, e.close)
	in := genAnalytics(rng, 8*sendsPer*sendRows)
	batches := map[aggservice.TupleOp][][]byte{}
	drains := map[aggservice.DrainKind][]float64{}
	var dl transport.DeliveryList
	var ack, reply []byte
	var seq [lanes]uint32
	fold := func(job int, pkt []byte) {
		binary.BigEndian.PutUint32(pkt[4:], seq[job])
		seq[job]++
		dl.Reset()
		e.sw.HandleBatch(job, [][]byte{pkt}, &dl)
	}
	nonce := uint32(0)
	for job := 0; job < lanes; job++ {
		for _, iv := range in.tenants[job] {
			for s := 0; s < sendsPer; s++ {
				pkt := aggservice.EncodeTuples(job, 0, 0, iv.op, iv.keys[s*sendRows:(s+1)*sendRows], iv.vals[s*sendRows:(s+1)*sendRows])
				batches[iv.op] = append(batches[iv.op], pkt)
				fold(job, pkt)
				if dl.Len() != 1 {
					return fmt.Errorf("probe: tuple batch got %d replies", dl.Len())
				}
				ack = dl.Deliveries()[0].Packet
			}
			for _, d := range iv.drains {
				nonce++
				req := [][]byte{aggservice.EncodeDrain(job, d.kind, 0, nonce)}
				dl.Reset()
				t0 := time.Now()
				e.sw.HandleBatch(transport.ObserverWorker, req, &dl)
				el := float64(time.Since(t0).Nanoseconds())
				if len(d.entries) > 0 { // the query tenant's post-Top-N drains are empty
					drains[d.kind] = append(drains[d.kind], el)
					if d.kind == aggservice.DrainGroups {
						reply = dl.Deliveries()[0].Packet
					}
				}
			}
		}
	}
	p.drainNS = map[aggservice.DrainKind]float64{}
	for k, obs := range drains {
		p.drainNS[k] = slices.Min(obs)
	}

	for _, t := range []struct {
		job int
		op  aggservice.TupleOp
		n   int
		out *opCost
	}{
		{0, aggservice.OpQueryAgg, 40, &p.tupleAgg},
		{0, aggservice.OpQueryTopN, 1000, &p.tupleTopN},
		{1, aggservice.OpTelemetry, 40, &p.tupleTelemetry},
	} {
		next := 0
		p.loop(t.out, t.n, sendRows, func() {
			fold(t.job, batches[t.op][next%len(batches[t.op])])
			next++
		})
	}
	iv := in.tenants[0][0]
	p.loop(&p.tupleEncodePerRow, 2000, sendRows, func() {
		sink = aggservice.EncodeTuples(0, 0, 0, iv.op, iv.keys[:sendRows], iv.vals[:sendRows])
	})
	p.loop(&p.ackDecode, 20000, 1, func() {
		_, _, s, err := aggservice.DecodeTupleAck(ack)
		if err != nil {
			panic(err)
		}
		sink = s
	})
	p.loop(&p.replyDecode, 50000, 1, func() {
		_, _, es, err := aggservice.DecodeDrainReply(reply)
		if err != nil {
			panic(err)
		}
		sink = es
	})
	return nil
}

// probeTransport round-trips vectors of 32 ADD-sized packets through each
// fabric against a handler that answers every packet with a canned reply.
func (p *probeSet) probeTransport(w *workload) error {
	const batch = 32
	size := 9 + w.profile.ValueBytes()*w.modules
	pkt := make([]byte, size)
	pkt[0] = aggservice.WireVersion
	reply := append([]byte(nil), pkt...)
	handler := func(port int, pkts [][]byte, out *transport.DeliveryList) {
		for range pkts {
			out.Unicast(port, reply)
		}
	}
	vec := make([][]byte, batch)
	for i := range vec {
		vec[i] = pkt
	}
	bufs := make([][]byte, batch)
	roundTrip := func(fab transport.Fabric) func() {
		return func() {
			if err := fab.SendBatch(0, vec); err != nil {
				panic(err)
			}
			for got := 0; got < batch; {
				k, err := fab.RecvBatch(0, bufs[got:], 100*time.Millisecond)
				if err == transport.ErrTimeout {
					// Loopback dropped part of the burst: send it again;
					// later rounds absorb the surplus replies.
					if err := fab.SendBatch(0, vec); err != nil {
						panic(err)
					}
					continue
				}
				if err != nil {
					panic(err)
				}
				got += k
			}
		}
	}
	mem, err := transport.NewMemory(transport.MemoryConfig{Workers: 1, BatchHandler: handler})
	if err != nil {
		return err
	}
	p.closes = append(p.closes, func() { mem.Close() })
	p.loop(&p.memPerPkt, 5000, batch, roundTrip(mem))
	for _, b := range []struct {
		mode transport.MmsgMode
		out  *opCost
	}{{transport.MmsgOff, &p.udpLoopPerPkt}, {transport.MmsgOn, &p.udpMmsgPerPkt}} {
		udp, err := transport.NewUDP(1, handler, transport.WithMmsg(b.mode))
		if err != nil {
			return err
		}
		udp.SetBuffers(4 << 20)
		p.closes = append(p.closes, func() { udp.Close() })
		p.loop(b.out, 300, batch, roundTrip(udp))
	}
	return nil
}

// probeWorkerLoop runs the workload's client (Worker.Reduce, or
// TupleClient.Send) over a Memory fabric against a switch that does no
// work: it echoes each ADD back as that chunk's RESULT, or acks each tuple
// batch. The client's CPU per chunk, less the codec and fabric probes, is
// the client's own cost.
func (p *probeSet) probeWorkerLoop(w *workload, rng *rand.Rand) error {
	echo := func(port int, pkts [][]byte, out *transport.DeliveryList) {
		for _, pkt := range pkts {
			switch pkt[1] {
			case aggservice.MsgAdd: // [ver type job(2) chunk(4) epoch values] → [ver type job(2) chunk(4) values overflow]
				res := make([]byte, len(pkt))
				copy(res, pkt[:8])
				res[1] = aggservice.MsgResult
				copy(res[8:], pkt[9:])
				out.Unicast(port, res)
			case aggservice.MsgTuple: // [ver type job(2) seq(4) epoch op count(2) rows] → [ver type job(2) seq(4) count(2) bitmap]
				count := int(binary.BigEndian.Uint16(pkt[10:]))
				ack := make([]byte, 10+(count+7)/8)
				copy(ack, pkt[:8])
				ack[1] = aggservice.MsgTupleAck
				copy(ack[8:], pkt[10:12])
				out.Unicast(port, ack)
			}
		}
	}
	fab, err := transport.NewMemory(transport.MemoryConfig{Workers: 1, BatchHandler: echo})
	if err != nil {
		return err
	}
	defer fab.Close()
	cfg := aggservice.Config{
		Workers: 1, Pool: pool, Modules: w.modules, Shards: shards,
		Profiles: []core.NumericProfile{w.profile}, Mode: core.ModeApprox, Arch: w.arch,
	}
	const reps = 3
	var obs [reps]float64
	if w.analytics {
		in := genAnalytics(rng, max(64/p.div, 1)*sendsPer*sendRows)
		client := aggservice.NewTupleClient(0, 0, fab, cfg)
		for r := range obs {
			cpu0 := cpuTime()
			rows := 0
			for _, iv := range in.tenants[1] {
				for s := 0; s < sendsPer; s++ {
					if _, err := client.Send(iv.op, iv.keys[s*sendRows:(s+1)*sendRows], iv.vals[s*sendRows:(s+1)*sendRows]); err != nil {
						return fmt.Errorf("probe: echo tuple client: %w", err)
					}
					rows += sendRows
				}
			}
			obs[r] = float64(cpuTime()-cpu0) / float64(rows)
		}
	} else {
		chunks := max(128*1024/p.div, 64)
		vec := genTrain(rng, chunks*w.modules).vecs[0]
		for r := range obs {
			wk := aggservice.NewJobWorker(0, 0, fab, cfg)
			cpu0 := cpuTime()
			if _, err := wk.Reduce(vec); err != nil {
				return fmt.Errorf("probe: echo worker: %w", err)
			}
			obs[r] = float64(cpuTime()-cpu0) / float64(chunks)
		}
	}
	p.workerLoopPerChunk = slices.Min(obs[:])
	return nil
}
