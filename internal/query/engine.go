package query

import (
	"errors"
	"fmt"
	"sort"

	"fpisa/internal/core"
)

// ErrNoGroups reports a grouped plan configured with a zero register
// budget: both the group-max pruner and the hash aggregator bucket rows by
// Key % Groups, which is undefined at Groups == 0.
var ErrNoGroups = errors.New("query: grouped plan has zero groups")

// Cost records the work a plan performed; the deterministic time model
// turns it into Fig. 13's execution-time bars.
type Cost struct {
	WorkerRows   int // rows scanned/produced at workers
	RowsToMaster int // rows crossing the network to the master
	MasterRows   int // rows the master processes
	SwitchReads  int // switch register drains (aggregation plans)
}

// Time-model constants, calibrated so the baseline/switch gap matches the
// published Cheetah-vs-Spark results the paper aligns with (Fig. 13:
// 1.9–2.7× at their scale). The fixed overheads model Spark's per-stage
// scheduling/JVM costs versus Cheetah's DPDK pipeline; the per-row costs
// model row materialization at the master.
const (
	sparkFixedSec    = 2.05          // Spark job/stage scheduling + JVM warm path
	dpdkFixedSec     = 0.80          // Cheetah DPDK master setup
	workerScanRowSec = 120e-9        // per-row scan/join work at workers (both plans)
	netRowSec        = 16 * 8 / 32e9 // 16-byte row at 32 Gbps effective (40GbE)
	sparkMasterRow   = 900e-9        // Spark master per-row (deserialize + process)
	dpdkMasterRow    = 350e-9        // Cheetah master per-row
	switchDrainRow   = 400e-9        // control-plane register read per group
)

// BaselineSeconds is the Spark-like plan's modeled time.
func (c Cost) BaselineSeconds(workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	return sparkFixedSec +
		float64(c.WorkerRows)*workerScanRowSec/float64(workers) +
		float64(c.RowsToMaster)*netRowSec +
		float64(c.MasterRows)*sparkMasterRow
}

// SwitchSeconds is the FPISA-accelerated plan's modeled time.
func (c Cost) SwitchSeconds(workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	return dpdkFixedSec +
		float64(c.WorkerRows)*workerScanRowSec/float64(workers) +
		float64(c.RowsToMaster)*netRowSec +
		float64(c.MasterRows)*dpdkMasterRow +
		float64(c.SwitchReads)*switchDrainRow
}

// Engine executes the five queries against partitioned data.
type Engine struct {
	Parts []Dataset
	// FullDimensions: Q3's dimension tables are broadcast, so workers see
	// all customers/orders regardless of partitioning.
	merged *Dataset
}

// NewEngine wraps partitions.
func NewEngine(parts []Dataset) *Engine {
	e := &Engine{Parts: parts}
	m := &Dataset{}
	for i := range parts {
		m.UserVisits = append(m.UserVisits, parts[i].UserVisits...)
		m.Rankings = append(m.Rankings, parts[i].Rankings...)
		m.LineItems = append(m.LineItems, parts[i].LineItems...)
		m.Orders = append(m.Orders, parts[i].Orders...)
		m.Customers = append(m.Customers, parts[i].Customers...)
	}
	e.merged = m
	return e
}

// workerView returns the dataset a worker evaluates: its partition of the
// fact tables plus broadcast dimension tables.
func (e *Engine) workerView(w int) *Dataset {
	ds := e.Parts[w]
	return &Dataset{
		UserVisits: ds.UserVisits,
		Rankings:   ds.Rankings,
		LineItems:  ds.LineItems,
		Orders:     e.merged.Orders,
		Customers:  e.merged.Customers,
	}
}

// PartRows returns the rows query q produces on worker w's partition view
// (its fact-table slice plus broadcast dimension tables) — the stream a
// wire client sends toward an in-network pruning or aggregation stage.
func (e *Engine) PartRows(q Query, w int) []Row {
	return q.WorkerRows(e.workerView(w))
}

// Workers returns the partition count.
func (e *Engine) Workers() int { return len(e.Parts) }

// Reference computes the query's exact answer over all data (float64
// master arithmetic, no switch).
func (e *Engine) Reference(q Query) Result {
	var rows []Row
	for w := range e.Parts {
		rows = append(rows, q.WorkerRows(e.workerView(w))...)
	}
	return q.Finish(rows, q.TopN)
}

// RunBaseline executes the Spark-like plan: every worker row crosses the
// network and the master computes the result.
func (e *Engine) RunBaseline(q Query) (Result, Cost) {
	var rows []Row
	for w := range e.Parts {
		rows = append(rows, q.WorkerRows(e.workerView(w))...)
	}
	cost := Cost{WorkerRows: len(rows), RowsToMaster: len(rows), MasterRows: len(rows)}
	return q.Finish(rows, q.TopN), cost
}

// RunSwitch executes the FPISA-accelerated plan.
func (e *Engine) RunSwitch(q Query) (Result, Cost, error) {
	switch q.Desc.Method {
	case Pruning:
		return e.runPruning(q)
	case Aggregation:
		return e.runAggregation(q)
	}
	return Result{}, Cost{}, fmt.Errorf("query: unknown method")
}

// runPruning streams rows through a switch that keeps per-query comparison
// state (the ordered-key registers of prune.go) and forwards only rows that
// can still contribute; the master finishes exactly on the survivors.
func (e *Engine) runPruning(q Query) (Result, Cost, error) {
	var cost Cost
	var admit func(Row) bool
	if q.TopN > 0 {
		p := NewTopNPruner(q.TopN)
		admit = func(r Row) bool { return p.Admit(r.Val) }
	} else {
		if q.Groups <= 0 {
			return Result{}, cost, fmt.Errorf("group-max pruning: %w", ErrNoGroups)
		}
		p := NewGroupMaxPruner(q.Groups)
		admit = func(r Row) bool { return p.Admit(r.Key, r.Val) }
	}
	var survivors []Row
	for w := range e.Parts {
		rows := q.WorkerRows(e.workerView(w))
		cost.WorkerRows += len(rows)
		for _, r := range rows {
			if admit(r) {
				survivors = append(survivors, r)
			}
		}
	}
	cost.RowsToMaster = len(survivors)
	cost.MasterRows = len(survivors)
	return q.Finish(survivors, q.TopN), cost, nil
}

// runAggregation streams rows into per-group FPISA accumulators on the
// switch (full FPISA: query processing needs the §4.2 accuracy, §6.1); the
// master drains the registers at the end.
func (e *Engine) runAggregation(q Query) (Result, Cost, error) {
	var cost Cost
	if q.Groups <= 0 {
		return Result{}, cost, fmt.Errorf("hash aggregation: %w", ErrNoGroups)
	}
	acc, err := core.NewAccumulator(core.DefaultFP32(core.ModeFull), q.Groups)
	if err != nil {
		return Result{}, cost, err
	}
	seen := make(map[uint32]bool)
	for w := range e.Parts {
		rows := q.WorkerRows(e.workerView(w))
		cost.WorkerRows += len(rows)
		for _, r := range rows {
			g := r.Key % uint32(q.Groups)
			if err := acc.Add(int(g), r.Val); err != nil {
				return Result{}, cost, err
			}
			seen[g] = true
		}
	}
	entries := make([]KV, 0, len(seen))
	keys := make([]uint32, 0, len(seen))
	for g := range seen {
		keys = append(keys, g)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, g := range keys {
		entries = append(entries, KV{Key: g, Val: float64(acc.ReadFloat32(int(g)))})
	}
	cost.SwitchReads = len(seen)
	cost.MasterRows = len(seen)
	// Register drains ride the control plane; no data-plane rows cross.
	cost.RowsToMaster = 0
	return sortResult(entries, true), cost, nil
}
