package aggservice

import (
	"errors"
	"math"
	"math/bits"
	"testing"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/query"
	"fpisa/internal/stats"
	"fpisa/internal/tcam"
	"fpisa/internal/transport"
)

// TestClassValidation walks every refusal branch of validateClass.
func TestClassValidation(t *testing.T) {
	cfg := Config{}
	bad := []AdmitClass{
		{Class: ClassTraining, TopN: 1},
		{Class: ClassTraining, Groups: 1},
		{Class: ClassQuery},
		{Class: ClassQuery, TopN: -1, Groups: 2},
		{Class: ClassQuery, TopN: MaxAnalyticsRegisters, Groups: 1},
		{Class: ClassTelemetry, TopN: 1, Groups: 16},
		{Class: ClassTelemetry},
		{Class: ClassTelemetry, Groups: 12},
		{Class: ClassTelemetry, Groups: MaxAnalyticsRegisters},
		{Class: WorkloadClass(9)},
	}
	for _, ac := range bad {
		if err := cfg.validateClass(ac); !errors.Is(err, ErrBadClass) {
			t.Errorf("validateClass(%+v) = %v, want ErrBadClass", ac, err)
		}
	}
	good := []AdmitClass{
		{},
		{Class: ClassQuery, TopN: 10},
		{Class: ClassQuery, Groups: 1024},
		{Class: ClassQuery, TopN: 10, Groups: 1024},
		{Class: ClassTelemetry, Groups: 16},
	}
	for _, ac := range good {
		if err := cfg.validateClass(ac); err != nil {
			t.Errorf("validateClass(%+v) = %v", ac, err)
		}
	}
	// Analytics classes are refused on tree leaves.
	leaf := Config{Uplink: &UplinkConfig{}}
	if err := leaf.validateClass(AdmitClass{Class: ClassQuery, TopN: 1}); !errors.Is(err, ErrBadClass) {
		t.Errorf("leaf query admit: %v", err)
	}
	if err := leaf.validateClass(AdmitClass{Class: ClassTelemetry, Groups: 4}); !errors.Is(err, ErrBadClass) {
		t.Errorf("leaf telemetry admit: %v", err)
	}
}

// TestAnalyticsCodecRoundTrips covers the four new message codecs plus the
// class-widened admit/ack/stats frames.
func TestAnalyticsCodecRoundTrips(t *testing.T) {
	keys := []uint32{7, 0xFFFFFFFF, 42}
	vals := []float32{1.5, -3.25, float32(math.Inf(1))}
	pkt := EncodeTuples(3, 99, 2, OpQueryGroupMax, keys, vals)
	job, seq, epoch, op, k2, v2, err := decodeTuples(pkt)
	if err != nil || job != 3 || seq != 99 || epoch != 2 || op != OpQueryGroupMax {
		t.Fatalf("tuple round trip: job=%d seq=%d epoch=%d op=%v err=%v", job, seq, epoch, op, err)
	}
	for i := range keys {
		if k2[i] != keys[i] || math.Float32bits(v2[i]) != math.Float32bits(vals[i]) {
			t.Fatalf("tuple row %d: (%d,%v) != (%d,%v)", i, k2[i], v2[i], keys[i], vals[i])
		}
	}
	for _, mut := range [][]byte{pkt[:tupleHdrBytes-1], pkt[:len(pkt)-1], append(append([]byte{}, pkt...), 0)} {
		if _, _, _, _, _, _, err := decodeTuples(mut); err == nil {
			t.Fatalf("mutant tuple batch of %d bytes decoded", len(mut))
		}
	}

	ack := tupleAckOf(3, 99, []bool{true, false, true, false, true})
	aj, aseq, alive, err := DecodeTupleAck(ack)
	if err != nil || aj != 3 || aseq != 99 || len(alive) != 5 {
		t.Fatalf("tuple ack round trip: %d %d %v %v", aj, aseq, alive, err)
	}
	for i, s := range alive {
		if s != (i%2 == 0) {
			t.Fatalf("survivor %d = %v", i, s)
		}
	}
	dirty := append([]byte{}, ack...)
	dirty[len(dirty)-1] |= 0x80 // padding bit past count=5
	if _, _, _, err := DecodeTupleAck(dirty); err == nil {
		t.Fatal("nonzero bitmap padding accepted")
	}

	dr := EncodeDrain(7, DrainHeavyHitters, DrainFlagResetPrune, 0xDEADBEEF)
	if len(dr) != drainReqBytes || dr[1] != MsgDrain {
		t.Fatalf("drain request frame: %v", dr)
	}
	entries := []DrainEntry{{Key: 1, Val: 2.5}, {Key: 9, Val: -0.5}}
	rep := encodeDrainReply(7, DrainHeavyHitters, entries)
	rj, rk, re, err := DecodeDrainReply(rep)
	if err != nil || rj != 7 || rk != DrainHeavyHitters || len(re) != 2 || re[0] != entries[0] || re[1] != entries[1] {
		t.Fatalf("drain reply round trip: %d %v %v %v", rj, rk, re, err)
	}
	badKind := append([]byte{}, rep...)
	badKind[4] = 9
	if _, _, _, err := DecodeDrainReply(badKind); err == nil {
		t.Fatal("unknown drain kind accepted")
	}
	if _, _, _, err := DecodeDrainReply(rep[:len(rep)-3]); err == nil {
		t.Fatal("truncated drain reply accepted")
	}

	ac := AdmitClass{Class: ClassQuery, TopN: 10, Groups: 1024}
	admit := JobAdmit{Job: 5, JobSpec: JobSpec{Weight: 3, Class: ac}}
	adm := EncodeJobAdmit(admit)
	if len(adm) != jobAdmitBytes {
		t.Fatalf("admit frame %d bytes, want %d", len(adm), jobAdmitBytes)
	}
	if got, err := DecodeJobAdmit(adm); err != nil || got != admit {
		t.Fatalf("admit class round trip: %+v %v", got, err)
	}
	// The pre-class 9-byte layout is now a truncation error.
	if _, err := DecodeJobAdmit(adm[:9]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("prior-layout admit: %v", err)
	}

	wantAck := JobAck{Job: 5, Status: AckAdmitted, Epoch: 1, JobSpec: JobSpec{Weight: 3, Class: ac}}
	jack := EncodeJobAck(wantAck)
	if len(jack) != jobAckBytes {
		t.Fatalf("ack frame %d bytes, want %d", len(jack), jobAckBytes)
	}
	if got, err := DecodeJobAck(jack); err != nil || got != wantAck {
		t.Fatalf("ack class round trip: %+v %v", got, err)
	}
	if _, err := DecodeJobAck(jack[:11]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("prior-layout ack: %v", err)
	}

	stat := JobStats{Phase: PhaseAdmitted, Weight: 2, Adds: 11,
		Class: AdmitClass{Class: ClassTelemetry, Groups: 64}}
	srep := encodeStatsReply(4, stat)
	if len(srep) != statsReplyBytes {
		t.Fatalf("stats frame %d bytes, want %d", len(srep), statsReplyBytes)
	}
	sj, got, err := DecodeStatsReply(srep)
	if err != nil || sj != 4 || got.Class != stat.Class || got.Adds != stat.Adds {
		t.Fatalf("stats class round trip: %d %+v %v", sj, got, err)
	}
	if _, _, err := DecodeStatsReply(srep[:statsReplyBytes-5]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("prior-layout stats reply: %v", err)
	}
}

// analyticsCfg builds a switch config with job 0 training and job 1 under
// the given class, full-precision mode so query sums are bit-exact against
// the engine's software accumulator.
func analyticsCfg(workers int, ac AdmitClass) Config {
	return Config{
		Workers: workers, Pool: 4, Modules: 1, Shards: 2, Jobs: 2,
		Classes: []AdmitClass{{}, ac},
		Mode:    core.ModeFull, Arch: pisa.ExtendedArch(),
	}
}

// TestAnalyticsRangesSpreadOverShards: neighbouring job ids keep their
// analytics state behind different shard locks, so two tenants' folds and
// drains do not serialise on one lock.
func TestAnalyticsRangesSpreadOverShards(t *testing.T) {
	sw, err := NewSwitch(analyticsCfg(1, AdmitClass{Class: ClassQuery, Groups: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	if a, b := sw.homeShard(0), sw.homeShard(1); a == b {
		t.Errorf("jobs 0 and 1 share home shard %d of %d", a, sw.Shards())
	}
}

// drainVia harvests analytics state through the observer frame against an
// in-process switch.
func drainVia(t *testing.T, sw *Switch, job int, kind DrainKind, flags uint8, nonce uint32) []DrainEntry {
	t.Helper()
	ds := handle(sw, transport.ObserverWorker, EncodeDrain(job, kind, flags, nonce))
	if len(ds) != 1 {
		t.Fatalf("drain deliveries: %v", ds)
	}
	j, k, entries, err := DecodeDrainReply(ds[0].Packet)
	if err != nil || j != job || k != kind {
		t.Fatalf("drain reply: job=%d kind=%v err=%v", j, k, err)
	}
	return entries
}

// TestQueryEngineOnSwitch is the tentpole end-to-end: all five Table 2
// queries run over the wire against the shared switch — pruning queries
// must finish bit-identical to the engine's exact Reference, aggregation
// queries bit-identical to the engine's software switch plan (RunSwitch)
// and within tolerance of the float64 Reference.
func TestQueryEngineOnSwitch(t *testing.T) {
	const workers = 2
	sc := query.Scale{UserVisits: 6000, Rankings: 3600, LineItems: 4800, Orders: 1200, Customers: 300}
	eng := query.NewEngine(query.Generate(sc, workers, 23))
	var nonce uint32 = 1000
	for _, q := range query.Queries() {
		q := q
		t.Run(q.Desc.Name, func(t *testing.T) {
			ac := AdmitClass{Class: ClassQuery, TopN: q.TopN, Groups: q.Groups}
			if q.TopN > 0 {
				// The switch Top-N plan needs no group registers.
				ac.Groups = 0
			}
			cfg := analyticsCfg(workers, ac)
			sw, err := NewSwitch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fab, err := transport.NewMemory(transport.MemoryConfig{Workers: cfg.Ports(), BatchHandler: sw.HandleBatch})
			if err != nil {
				t.Fatal(err)
			}
			op := OpQueryAgg
			if q.TopN > 0 {
				op = OpQueryTopN
			} else if q.Desc.Method == query.Pruning {
				op = OpQueryGroupMax
			}
			// Workers stream sequentially so the fold order matches the
			// engine's worker-order row scan (bit-exactness needs it for
			// sums; pruning is lossless in any order).
			var survivors []query.Row
			for w := 0; w < workers; w++ {
				rows := eng.PartRows(q, w)
				keys := make([]uint32, len(rows))
				vals := make([]float32, len(rows))
				for i, r := range rows {
					keys[i], vals[i] = r.Key, r.Val
				}
				cl := NewTupleClient(1, w, fab, cfg)
				alive, err := cl.Send(op, keys, vals)
				if err != nil {
					t.Fatalf("worker %d send: %v", w, err)
				}
				for _, i := range alive {
					survivors = append(survivors, rows[i])
				}
			}
			ref := eng.Reference(q)
			switch op {
			case OpQueryAgg:
				nonce++
				entries := drainVia(t, sw, 1, DrainGroups, 0, nonce)
				sres, _, err := eng.RunSwitch(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) != len(sres.Entries) {
					t.Fatalf("%d drained groups, engine drained %d", len(entries), len(sres.Entries))
				}
				for i, e := range entries {
					want := sres.Entries[i]
					if e.Key != want.Key || float64(e.Val) != want.Val {
						t.Fatalf("group %d: (%d, %v) != engine (%d, %v)", i, e.Key, e.Val, want.Key, want.Val)
					}
				}
				// And within accumulation tolerance of the exact float64 sums.
				for i, e := range entries {
					want := ref.Entries[i]
					if e.Key != want.Key {
						t.Fatalf("group key %d != reference %d", e.Key, want.Key)
					}
					if diff := math.Abs(float64(e.Val) - want.Val); diff > 1e-3*math.Abs(want.Val)+1e-6 {
						t.Fatalf("group %d: %v vs reference %v", e.Key, e.Val, want.Val)
					}
				}
			default:
				got := q.Finish(survivors, q.TopN)
				if len(got.Entries) != len(ref.Entries) {
					t.Fatalf("finish on %d survivors gave %d entries, reference %d",
						len(survivors), len(got.Entries), len(ref.Entries))
				}
				for i := range got.Entries {
					if got.Entries[i] != ref.Entries[i] {
						t.Fatalf("entry %d: %+v != reference %+v", i, got.Entries[i], ref.Entries[i])
					}
				}
				if len(survivors) >= eng.Workers()*len(ref.Entries)+len(ref.Entries)*8 && q.TopN > 0 {
					t.Logf("weak pruning: %d survivors for top-%d", len(survivors), q.TopN)
				}
			}
			st, ok := sw.JobStats(1)
			if !ok || st.Class.Class != ClassQuery {
				t.Fatalf("job 1 stats: %+v %v", st, ok)
			}
		})
	}
}

// TestTelemetrySketches drives the telemetry path: LPM-classified
// utilization accumulators, the heavy-hitter table and the size histogram,
// all drained over the observer frame and checked against a host mirror.
func TestTelemetrySketches(t *testing.T) {
	const classes = 16
	cfg := analyticsCfg(1, AdmitClass{Class: ClassTelemetry, Groups: classes})
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := transport.NewMemory(transport.MemoryConfig{Workers: cfg.Ports(), BatchHandler: sw.HandleBatch})
	if err != nil {
		t.Fatal(err)
	}

	// A skewed flow mix: two dominant flows plus a long tail, keys chosen
	// so the dominant flows own distinct heavy-hitter rows.
	var keys []uint32
	var vals []float32
	addFlow := func(key uint32, n int, size float32) {
		for i := 0; i < n; i++ {
			keys = append(keys, key)
			vals = append(vals, size)
		}
	}
	addFlow(0x10000001, 400, 1500)
	addFlow(0xA0000002, 250, 900)
	for i := 0; i < 300; i++ {
		addFlow(uint32(i)*0x01000003+7, 1, 64)
	}

	util := make([]float64, classes)
	hist := stats.MustNewLogHistogram(telemetryHistBase, telemetryHistMinExp, telemetryHistMaxExp)
	for i, k := range keys {
		util[k>>28] += float64(vals[i])
		hist.Observe(float64(vals[i]))
	}

	// Stream in intervals, draining utilization between them: per-class
	// register sums must stay inside the §3.3 mantissa range between
	// harvests (repeated same-slot adds overflow the register's headroom
	// by design — the sticky-overflow semantic), so telemetry operates
	// drain-periodically exactly like a production collector.
	const interval = 100
	cl := NewTupleClient(1, 0, fab, cfg)
	harvested := make([]float64, classes)
	var nonce uint32 = 1
	for base := 0; base < len(keys); base += interval {
		end := base + interval
		if end > len(keys) {
			end = len(keys)
		}
		if _, err := cl.Send(OpTelemetry, keys[base:end], vals[base:end]); err != nil {
			t.Fatal(err)
		}
		for _, e := range drainVia(t, sw, 1, DrainGroups, 0, nonce) {
			harvested[e.Key] += float64(e.Val)
		}
		nonce++
	}
	for c := 0; c < classes; c++ {
		if util[c] == 0 {
			if harvested[c] != 0 {
				t.Errorf("class %d harvested %v without traffic", c, harvested[c])
			}
			continue
		}
		if diff := math.Abs(harvested[c] - util[c]); diff > 1e-3*util[c] {
			t.Errorf("class %d utilization %v, mirror %v", c, harvested[c], util[c])
		}
	}

	hh := drainVia(t, sw, 1, DrainHeavyHitters, 0, 1000)
	if len(hh) < 2 {
		t.Fatalf("heavy-hitter drain: %v", hh)
	}
	if hh[0].Key != 0x10000001 || hh[1].Key != 0xA0000002 {
		t.Fatalf("heavy hitters = %v, want flows 0x10000001, 0xA0000002 on top", hh[:2])
	}
	if hh[0].Val < hh[1].Val {
		t.Fatalf("heavy-hitter order: %v", hh[:2])
	}

	hd := drainVia(t, sw, 1, DrainHistogram, 0, 1001)
	want := map[uint32]float32{}
	for _, b := range hist.Bins() {
		if b.Count > 0 {
			want[uint32(b.Exp)] = float32(b.Count)
		}
	}
	if len(hd) != len(want) {
		t.Fatalf("histogram drain %v, mirror %v", hd, want)
	}
	for _, e := range hd {
		if want[e.Key] != e.Val {
			t.Fatalf("hist bin %d: %v, mirror %v", e.Key, e.Val, want[e.Key])
		}
	}

	// Drains are read-and-reset: a second pass with fresh nonces is empty.
	for kind, n := range map[DrainKind]uint32{DrainGroups: 2000, DrainHeavyHitters: 2001, DrainHistogram: 2002} {
		if e := drainVia(t, sw, 1, kind, 0, n); len(e) != 0 {
			t.Errorf("second %v drain not empty: %v", kind, e)
		}
	}
}

// TestDrainNonceReplay: a retried drain (same nonce) replays the cached
// harvest instead of re-executing the read-and-reset.
func TestDrainNonceReplay(t *testing.T) {
	cfg := analyticsCfg(1, AdmitClass{Class: ClassQuery, Groups: 8})
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkt := EncodeTuples(1, 0, 0, OpQueryAgg, []uint32{3}, []float32{2.5})
	if ds := handle(sw, cfg.Port(1, 0), pkt); len(ds) != 1 {
		t.Fatalf("tuple deliveries: %v", ds)
	}
	first := drainVia(t, sw, 1, DrainGroups, 0, 77)
	if len(first) != 1 || first[0].Key != 3 || first[0].Val != 2.5 {
		t.Fatalf("first drain: %v", first)
	}
	replay := drainVia(t, sw, 1, DrainGroups, 0, 77)
	if len(replay) != 1 || replay[0] != first[0] {
		t.Fatalf("nonce replay lost the interval: %v", replay)
	}
	fresh := drainVia(t, sw, 1, DrainGroups, 0, 78)
	if len(fresh) != 0 {
		t.Fatalf("fresh drain after reset: %v", fresh)
	}
}

// TestTupleRetransmitReplay: the per-worker stop-and-wait lane folds a
// batch exactly once and replays its cached ack.
func TestTupleRetransmitReplay(t *testing.T) {
	cfg := analyticsCfg(1, AdmitClass{Class: ClassQuery, Groups: 8})
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	port := cfg.Port(1, 0)
	pkt := EncodeTuples(1, 0, 0, OpQueryAgg, []uint32{1}, []float32{1})
	ds1 := handle(sw, port, pkt)
	ds2 := handle(sw, port, pkt) // retransmission
	if len(ds1) != 1 || len(ds2) != 1 {
		t.Fatalf("deliveries: %v %v", ds1, ds2)
	}
	if string(ds1[0].Packet) != string(ds2[0].Packet) {
		t.Fatal("retransmit ack differs from original")
	}
	st, _ := sw.JobStats(1)
	if st.Adds != 1 || st.Completions != 1 || st.Retransmits != 1 || st.CacheHits != 1 {
		t.Fatalf("double fold: %+v", st)
	}
	if e := drainVia(t, sw, 1, DrainGroups, 0, 1); len(e) != 1 || e[0].Val != 1 {
		t.Fatalf("drain after retransmit: %v", e)
	}
	// A batch from the future is malformed, not folded.
	future := EncodeTuples(1, 9, 0, OpQueryAgg, []uint32{1}, []float32{1})
	before := sw.Rejects().Malformed
	if ds := handle(sw, port, future); len(ds) != 0 {
		t.Fatalf("future batch answered: %v", ds)
	}
	if got := sw.Rejects().Malformed; got != before+1 {
		t.Fatalf("Malformed %d → %d", before, got)
	}
}

// TestClassEnforcement: the data planes are sealed per class — ADDs to an
// analytics job, tuples to a training job, and unprovisioned ops are all
// refused with AckErrBadClass.
func TestClassEnforcement(t *testing.T) {
	cfg := analyticsCfg(1, AdmitClass{Class: ClassQuery, TopN: 4})
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	expectAck := func(ds []transport.Delivery, want AckStatus) {
		t.Helper()
		if len(ds) != 1 {
			t.Fatalf("deliveries: %v", ds)
		}
		if ack, err := DecodeJobAck(ds[0].Packet); err != nil || ack.Status != want {
			t.Fatalf("ack = %v (err %v), want %v", ack.Status, err, want)
		}
	}
	before := sw.Rejects().BadClass
	// ADD to the query job.
	expectAck(handle(sw, cfg.Port(1, 0), EncodeAddProfile(1, 0, 0, core.DefaultProfile, []float32{1})), AckErrBadClass)
	// Tuple to the training job.
	expectAck(handle(sw, cfg.Port(0, 0), EncodeTuples(0, 0, 0, OpQueryTopN, []uint32{1}, []float32{1})), AckErrBadClass)
	// Unprovisioned op on the query job (no group registers admitted).
	expectAck(handle(sw, cfg.Port(1, 0), EncodeTuples(1, 0, 0, OpQueryAgg, []uint32{1}, []float32{1})), AckErrBadClass)
	expectAck(handle(sw, cfg.Port(1, 0), EncodeTuples(1, 0, 0, OpTelemetry, []uint32{1}, []float32{1})), AckErrBadClass)
	if got := sw.Rejects().BadClass; got != before+4 {
		t.Fatalf("BadClass rejects %d → %d, want +4", before, got)
	}
	// Drain against a training job.
	ds := handle(sw, transport.ObserverWorker, EncodeDrain(0, DrainGroups, 0, 1))
	expectAck(ds, AckErrBadClass)
	// The provisioned op still works.
	pkt := EncodeTuples(1, 0, 0, OpQueryTopN, []uint32{1}, []float32{1})
	if ds := handle(sw, cfg.Port(1, 0), pkt); len(ds) != 1 || ds[0].Packet[1] != MsgTupleAck {
		t.Fatalf("provisioned op refused: %v", ds)
	}
}

// TestAnalyticsLifecycle: an analytics tenant admits over the widened wire
// frame, works, evicts cleanly, and the id re-admits as training.
func TestAnalyticsLifecycle(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 2, Modules: 1, Shards: 2, Jobs: 1, Capacity: 2,
		Dynamic: true, Mode: core.ModeFull, Arch: pisa.ExtendedArch()}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ac := AdmitClass{Class: ClassQuery, TopN: 2, Groups: 8}
	ds := handle(sw, transport.ObserverWorker, EncodeJobAdmit(JobAdmit{Job: 1, JobSpec: JobSpec{Weight: 2, Class: ac}}))
	if len(ds) != 1 {
		t.Fatalf("admit deliveries: %v", ds)
	}
	ack, err := DecodeJobAck(ds[0].Packet)
	status, epoch, gotAC := ack.Status, ack.Epoch, ack.Class
	if err != nil || status != AckAdmitted || gotAC != ac {
		t.Fatalf("class admit ack: %v %v %v", status, gotAC, err)
	}
	if st, _ := sw.JobStats(1); st.Class != ac {
		t.Fatalf("job 1 class = %v", st.Class)
	}
	// A bad descriptor is refused with the new status.
	ds = handle(sw, transport.ObserverWorker, EncodeJobAdmit(JobAdmit{Job: 0, JobSpec: JobSpec{Weight: 1, Class: AdmitClass{Class: ClassTelemetry, Groups: 3}}}))
	if ack, _ := DecodeJobAck(ds[0].Packet); ack.Status != AckErrBadClass {
		t.Fatalf("bad class admit ack: %v", ack.Status)
	}

	pkt := EncodeTuples(1, 0, epoch, OpQueryAgg, []uint32{5}, []float32{4})
	if ds := handle(sw, cfg.Port(1, 0), pkt); len(ds) != 1 || ds[0].Packet[1] != MsgTupleAck {
		t.Fatalf("tuple after admit: %v", ds)
	}
	if err := sw.Evict(1); err != nil {
		t.Fatal(err)
	}
	if sw.JobPhaseOf(1) != PhaseVacant {
		t.Fatalf("phase after evict: %v", sw.JobPhaseOf(1))
	}
	if st, _ := sw.JobStats(1); st.Class != (AdmitClass{}) {
		t.Fatalf("class survives eviction: %v", st.Class)
	}
	// Stale-epoch tuples bounce with an evicted notice.
	ds = handle(sw, cfg.Port(1, 0), pkt)
	if len(ds) != 1 {
		t.Fatalf("stale tuple deliveries: %v", ds)
	}
	if ack, _ := DecodeJobAck(ds[0].Packet); ack.Status != AckEvicted {
		t.Fatalf("stale tuple ack: %v", ack.Status)
	}
	// The id is reusable as a training tenant: fresh state, ADDs work.
	if err := sw.Admit(1, JobSpec{}); err != nil {
		t.Fatal(err)
	}
	add := EncodeAddProfile(1, 0, sw.JobEpoch(1), core.DefaultProfile, []float32{7})
	if ds := handle(sw, cfg.Port(1, 0), add); len(ds) != 1 || ds[0].Packet[1] != MsgResult {
		t.Fatalf("training ADD after class churn: %v", ds)
	}
}

// TestMixedClassFairness floods one single-shard switch from a training, a
// query and a telemetry tenant simultaneously — every tenant offers more
// load per sweep than its fair share, so the shared deficit ledger is what
// shapes the service rates. Weighted shares must come out proportional
// (Jain ≥ 0.95 over weight-normalized units) with real backpressure defers
// on the analytics lanes.
func TestMixedClassFairness(t *testing.T) {
	weights := []int{1, 2, 4}
	cfg := Config{Workers: 1, Pool: 8, Modules: 1, Shards: 1, Jobs: 3,
		Weights: weights,
		Classes: []AdmitClass{{}, {Class: ClassQuery, Groups: 64}, {Class: ClassTelemetry, Groups: 16}},
		Mode:    core.ModeFull, Arch: pisa.ExtendedArch(),
	}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setSchedRoundAge(sw, time.Minute)
	const (
		heavyTarget = 2048
		burst       = 8 // offered load per tenant per sweep
	)
	units := make([]uint32, 3)
	seqs := make([]uint32, 3)
	vals := []float32{1}
	tk := []uint32{3}
	for sweep := 0; units[2] < heavyTarget; sweep++ {
		if sweep > 50_000_000 {
			t.Fatalf("flood wedged: %v units after %d sweeps", units, sweep)
		}
		// Training tenant: chunks until the scheduler defers the bind.
		for b := 0; b < burst; b++ {
			served := false
			for _, d := range handle(sw, cfg.Port(0, 0), EncodeAddProfile(0, units[0], 0, core.DefaultProfile, vals)) {
				if d.Packet[1] == MsgResult {
					units[0]++
					served = true
				}
			}
			if !served {
				break
			}
		}
		// Analytics tenants: batches until backpressure (the stop-and-wait
		// lane retries the same seq next sweep).
		for _, j := range []int{1, 2} {
			op := OpQueryAgg
			if j == 2 {
				op = OpTelemetry
			}
			for b := 0; b < burst; b++ {
				served := false
				for _, d := range handle(sw, cfg.Port(j, 0), EncodeTuples(j, seqs[j], 0, op, tk, vals)) {
					if d.Packet[1] == MsgTupleAck {
						units[j]++
						seqs[j]++
						served = true
					}
				}
				if !served {
					break
				}
			}
		}
		// Telemetry folds into one slot: reset it between sweeps so the
		// flood never trips the register's sticky-overflow range.
		if sweep%256 == 255 {
			drainVia(t, sw, 2, DrainGroups, 0, uint32(sweep))
		}
	}
	var total, sumW uint32
	for j, u := range units {
		total += u
		sumW += uint32(weights[j])
	}
	for j, u := range units {
		expected := float64(total) * float64(weights[j]) / float64(sumW)
		if diff := float64(u) - expected; diff < -0.10*expected || diff > 0.10*expected {
			t.Errorf("job %d (weight %d): %d units, want %.0f ±10%% (all: %v)",
				j, weights[j], u, expected, units)
		}
	}
	if jain := jainIndex(units, weights); jain < 0.95 {
		t.Errorf("mixed-class Jain index %.4f < 0.95 (units %v)", jain, units)
	}
	if r := sw.Rejects(); r.Backpressure == 0 {
		t.Error("mixed-class contention produced no backpressure defers")
	}
	for j := 0; j < 3; j++ {
		st, _ := sw.JobStats(j)
		// Every job but the heaviest must have deferred: the heaviest is the
		// last to exhaust each round, so it advances the round instead.
		if j < 2 && st.SchedDefers == 0 {
			t.Errorf("job %d flooded a contended switch without a single defer", j)
		}
		if st.Completions != uint64(units[j]) {
			t.Errorf("job %d: stats report %d batches, driver saw %d", j, st.Completions, units[j])
		}
	}
}

// TestTrafficClassMatchesLPM pins the telemetry classifier — a shift —
// against the table it stands for: Groups equal-length prefixes in an
// internal/tcam longest-prefix-match table, the test-only oracle. Boundary
// keys sit on, just below and just above every prefix edge.
func TestTrafficClassMatchesLPM(t *testing.T) {
	for _, groups := range []int{1, 2, 16, 64, 2048} {
		an, err := newAnalyticsJob(AdmitClass{Class: ClassTelemetry, Groups: groups}, core.DefaultProfile, 1,
			func(int) (aggregator, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		plen := bits.TrailingZeros(uint(groups))
		lpm, err := tcam.NewLPM[int](32)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < groups; i++ {
			if err := lpm.Insert(uint64(i)<<(32-plen), plen, i); err != nil {
				t.Fatal(err)
			}
		}
		keys := []uint32{0, 1, 1 << 31, 1<<31 - 1, math.MaxUint32, math.MaxUint32 - 1, 0xdeadbeef}
		for i := 1; i < groups; i++ {
			edge := uint32(i) << (32 - plen)
			keys = append(keys, edge-1, edge, edge+1)
		}
		for _, key := range keys {
			want, ok := lpm.Lookup(uint64(key))
			if got := an.trafficClass(key); !ok || got != want || got >= groups {
				t.Fatalf("groups %d key %#08x: class %d, LPM says %d (hit %v)", groups, key, got, want, ok)
			}
		}
	}
}
