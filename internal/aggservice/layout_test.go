package aggservice

import (
	"fmt"
	"testing"

	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// shardOf is the slot layout written out from its definition, apart from the
// table locate reads: the jobs' slots laid end to end in id order and dealt
// to the shards in blocks of perBank.
func (s *Switch) shardOf(job, slot int) int {
	return (job*2*s.cfg.Pool + slot) / s.perBank % s.nsh
}

// slotAt returns inc's local slot by the same definition; the caller holds
// the lock of shard shardOf(inc.job, slot).
func (s *Switch) slotAt(inc *incarnation, slot int) *slotState {
	return &inc.banks[s.shardOf(inc.job, slot)].slot[(inc.job*2*s.cfg.Pool+slot)%s.perBank]
}

// TestSlotLayoutInjective: on every shape, several jobs each, locate agrees
// with the layout's definition, places every slot inside a bank, and gives
// no two slots of one job the same (shard, bank index). With more shards
// than a job has slots it is the round-robin layout: each slot alone in its
// bank.
func TestSlotLayoutInjective(t *testing.T) {
	for _, pool := range []int{1, 2, 5, 64} {
		for _, shards := range []int{1, 2, 3, 4, 8} {
			const jobs = 5
			cfg := Config{Workers: 1, Pool: pool, Modules: 1, Shards: shards, Jobs: jobs,
				Mode: core.ModeApprox, Arch: pisa.BaseArch()}
			t.Run(fmt.Sprintf("pool%d-shards%d", pool, shards), func(t *testing.T) {
				sw, err := NewSwitch(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sw.Close()
				if want := (2*pool + shards - 1) / shards; sw.perBank != want {
					t.Fatalf("perBank = %d, want ceil(2·Pool/Shards) = %d", sw.perBank, want)
				}
				for j := 0; j < jobs; j++ {
					inc := sw.current(j)
					used := map[slotLoc]int{}
					for slot := 0; slot < 2*pool; slot++ {
						loc := sw.locate(inc, slot)
						g := j*2*pool + slot
						if want := (slotLoc{shard: sw.shardOf(j, slot), idx: g % sw.perBank}); loc != want {
							t.Fatalf("job %d slot %d at %+v, want %+v", j, slot, loc, want)
						}
						if loc.shard < 0 || loc.shard >= shards || loc.idx < 0 || loc.idx >= sw.perBank {
							t.Fatalf("job %d slot %d at %+v: outside %d banks of %d", j, slot, loc, shards, sw.perBank)
						}
						if prev, dup := used[loc]; dup {
							t.Fatalf("job %d slots %d and %d share %+v", j, prev, slot, loc)
						}
						used[loc] = slot
						if shards > 2*pool && (loc.shard != g%shards || loc.idx != 0) {
							t.Fatalf("shards > 2·Pool: job %d slot %d at %+v, want round-robin shard %d", j, slot, loc, g%shards)
						}
					}
				}
			})
		}
	}
}

// TestInOrderWindowIsOneRun: whenever Shards divides 2·Pool, a full in-order
// Pool-aligned window from the worker that completes it comes back as ONE
// RESULT RUN, with every chunk's sum: the shards' blocks complete in chunk
// order with no sort. Dealing slots round-robin over the shards breaks the
// window into runs.
func TestInOrderWindowIsOneRun(t *testing.T) {
	for _, pool := range []int{5, 64} {
		for shards := 1; shards <= 2*pool; shards++ {
			if 2*pool%shards != 0 {
				continue
			}
			// Weights big enough that neither job's binds are deferred.
			cfg := Config{Workers: 2, Pool: pool, Modules: 1, Shards: shards, Jobs: 2, Weights: []int{64, 64},
				Mode: core.ModeApprox, Arch: pisa.BaseArch()}
			t.Run(fmt.Sprintf("pool%d-shards%d", pool, shards), func(t *testing.T) {
				sw, err := NewSwitch(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sw.Close()
				for job := 0; job < cfg.Jobs; job++ {
					// Three windows: both halves of the slots, then the first
					// half rebound.
					for start := 0; start < 3*pool; start += pool {
						window := func(v func(c int) float32) [][]byte {
							pkts := make([][]byte, pool)
							for i := range pkts {
								c := start + i
								pkts[i] = EncodeAddProfile(job, uint32(c), 0, core.DefaultProfile, []float32{v(c)})
							}
							return pkts
						}
						var dl transport.DeliveryList
						sw.HandleBatch(cfg.Port(job, 0), window(func(c int) float32 { return float32(c) + 0.5 }), &dl)
						if n := len(dl.Deliveries()); n != 0 {
							t.Fatalf("job %d window %d: %d deliveries before the last worker", job, start, n)
						}
						sw.HandleBatch(cfg.Port(job, 1), window(func(int) float32 { return 1 }), &dl)
						ds := dl.Deliveries()
						if len(ds) != cfg.Workers {
							t.Fatalf("job %d window %d: %d deliveries, want one RESULT RUN to each of %d workers", job, start, len(ds), cfg.Workers)
						}
						for _, d := range ds {
							if typ, _, _ := decodeHeader(d.Packet); typ != MsgResultRun {
								t.Fatalf("job %d window %d: delivery of type %d, want a RESULT RUN", job, start, typ)
							}
							j, first, vals, _, err := DecodeResultRun(d.Packet, 1, core.DefaultProfile)
							if err != nil || j != job || first != uint32(start) || len(vals) != pool {
								t.Fatalf("job %d window %d: run of job %d from %d, %d chunks (%v); want the whole window", job, start, j, first, len(vals), err)
							}
							for i, v := range vals {
								if want := float32(start+i) + 1.5; v[0] != want {
									t.Fatalf("job %d chunk %d = %g, want %g", job, start+i, v[0], want)
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestLeafInstallsRunAcrossSlotWrap: a tree leaf's parent answers with one
// RESULT RUN over chunks 2..5, which on Pool 2 occupy slots 2, 3, 0, 1 — the
// run crosses the 2·Pool−1 → 0 slot wrap and, on 2 shards, the bank
// boundary. The live incarnation installs every final, in chunk order, and
// only once; the same run reaching a retired incarnation installs nothing.
func TestLeafInstallsRunAcrossSlotWrap(t *testing.T) {
	cfg := Config{Workers: 1, Pool: 2, Modules: 1, Shards: 2, Mode: core.ModeApprox, Arch: pisa.BaseArch()}
	spine, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	up := &tickParent{tick: make(chan struct{}), closed: make(chan struct{})}
	leafCfg := cfg
	leafCfg.Uplink = &UplinkConfig{Fabric: up, Leaves: 1, Control: SwitchControl{Parent: spine}, Push: &pushLog{}}
	leaf, err := NewSwitch(leafCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { leaf.Close(); up.Close() }()

	const first, n = 2, 4
	if leaf.shardOf(0, leaf.slotOf(first)) == leaf.shardOf(0, leaf.slotOf(first+n-1)) {
		t.Fatal("the run does not cross a bank boundary")
	}
	// complete binds chunks first..first+n-1 at the leaf under inc, each
	// completing locally and so owed to the parent.
	complete := func(inc *incarnation) {
		t.Helper()
		pkts := make([][]byte, n)
		for i := range pkts {
			pkts[i] = EncodeAddProfile(0, uint32(first+i), uint8(inc.epoch), core.DefaultProfile, []float32{1})
		}
		var dl transport.DeliveryList
		leaf.HandleBatch(0, pkts, &dl)
		if owed := leaf.UplinkPending(0); owed != n {
			t.Fatalf("%d uplink ADDs owed, want %d", owed, n)
		}
	}
	items := make([][]byte, n)
	for i := range items {
		items[i] = encodeResult(0, uint32(first+i), core.DefaultProfile, []float32{float32(10 + i)}, false)
	}
	run := encodeResultRun(0, first, items)
	// receive feeds the run to inc's uplink sender and returns what it paid.
	receive := func(inc *incarnation) []paidFinal {
		var paid []paidFinal
		inc.up.mu.Lock()
		_, err := inc.up.snd.onDownlink([][]byte{run}, func(chunk uint32, vals []byte, ovf bool) {
			paid = append(paid, paidFinal{chunk, vals, ovf})
		})
		inc.up.mu.Unlock()
		if err != nil || len(paid) != n {
			t.Fatalf("the sender paid %d finals (%v), want %d", len(paid), err, n)
		}
		return paid
	}
	var dl transport.DeliveryList

	old := leaf.current(0)
	complete(old)
	if err := leaf.Evict(0); err != nil {
		t.Fatal(err)
	}
	if err := leaf.Admit(0, JobSpec{}); err != nil {
		t.Fatal(err)
	}
	cur := leaf.current(0)
	complete(cur)
	if done := leaf.installFinals(old, receive(old), nil, &dl); len(done) != 0 {
		t.Fatalf("the retired incarnation installed %d finals", len(done))
	}
	for slot := 0; slot < 2*cfg.Pool; slot++ {
		if leaf.slotAt(cur, slot).final {
			t.Fatalf("slot %d final before the live incarnation's run", slot)
		}
	}

	paid := receive(cur)
	done := leaf.installFinals(cur, paid, nil, &dl)
	if len(done) != n {
		t.Fatalf("%d finals installed, want %d", len(done), n)
	}
	for i, d := range done {
		c := uint32(first + i)
		_, chunk, vals, _, err := DecodeResultProfile(d.pkt, 1, core.DefaultProfile)
		if err != nil || d.chunk != c || chunk != c || vals[0] != float32(10+i) {
			t.Fatalf("final %d: chunk %d (%d) = %v (%v), want chunk %d = %d", i, d.chunk, chunk, vals, err, c, 10+i)
		}
		if st := leaf.slotAt(cur, leaf.slotOf(c)); !st.final || st.chunk != int64(c) {
			t.Fatalf("chunk %d's slot not final", c)
		}
	}
	if again := leaf.installFinals(cur, paid, nil, &dl); len(again) != 0 {
		t.Fatalf("%d finals installed twice", len(again))
	}
	if owed := leaf.UplinkPending(0); owed != 0 {
		t.Fatalf("%d uplink ADDs still owed", owed)
	}
	if st, _ := leaf.JobStats(0); st.CacheBytes != uint64(n*len(items[0])) {
		t.Fatalf("CacheBytes = %d, want %d finals' RESULTs", st.CacheBytes, n)
	}
}
