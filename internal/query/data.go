// Package query reproduces the paper's distributed database case study
// (§6): five queries from Cheetah and NETACCEL, modified to FP32 datatypes,
// executed either by a Spark-like baseline (every qualifying row ships to
// the master) or with in-switch acceleration — comparison-based pruning and
// FPISA aggregation at the switch (Table 2, Fig. 13).
//
// Datasets are deterministic generators standing in for the Big Data
// benchmark's uservisits/rankings tables and the TPC-H tables used by Q3
// and Q20, at a configurable scale; `adRevenue` and `l_extendedprice` are
// FP32, the paper's datatype conversion.
//
// Integration status: wired into the multi-tenant switch. A query tenant
// admits on aggservice with a ClassQuery workload descriptor and streams
// Engine.PartRows as MsgTuple batches — Top-N and group-max pruning run
// against the switch's ordered-key registers (the same collision-aware
// program as runPruning), aggregation folds into per-group FPISA
// accumulators drained over observer frames — under the shared DRR
// scheduler, concurrently with training tenants (examples/dbquery runs
// all five Table 2 queries this way over real UDP and checks them
// bit-identical against RunSwitch and Reference). The in-process engine
// here remains the reference executor and cost model. Consumed by
// cmd/fpisa-bench (Table 2 / Fig. 13 regeneration), cmd/fpisa-query's
// -query mode, examples/dbquery, and bench_test.go.
package query

import "math/rand"

// UserVisit is one row of the Big Data benchmark's uservisits table (the
// fields the five queries touch).
type UserVisit struct {
	SourceIP  uint32
	DestURL   uint32
	AdRevenue float32 // converted from int32 to FP32, as in §6.2
	Duration  int32
}

// Ranking is one row of the rankings table.
type Ranking struct {
	PageURL  uint32
	PageRank int32
}

// LineItem carries the TPC-H lineitem columns used by Q3/Q20.
type LineItem struct {
	OrderKey      uint32
	PartKey       uint32
	SuppKey       uint32
	Quantity      float32
	ExtendedPrice float32 // converted to FP32 (§6.2)
	Discount      float32
	ShipDate      int32 // days since epoch
}

// Order carries the TPC-H orders columns used by Q3.
type Order struct {
	OrderKey     uint32
	CustKey      uint32
	OrderDate    int32
	ShipPriority int32
}

// Customer carries the TPC-H customer columns used by Q3.
type Customer struct {
	CustKey    uint32
	MktSegment uint8
}

// Dataset is one worker's partition of all tables.
type Dataset struct {
	UserVisits []UserVisit
	Rankings   []Ranking
	LineItems  []LineItem
	Orders     []Order
	Customers  []Customer
}

// Scale controls dataset sizes. Scale 1 is CI-sized; the paper's sizes
// (30M uservisits, TPC-H SF1) correspond to roughly Scale 1000 and are
// reachable via fpisa-bench -scale.
type Scale struct {
	UserVisits int
	Rankings   int
	LineItems  int
	Orders     int
	Customers  int
}

// DefaultScale returns the CI-sized dataset.
func DefaultScale() Scale {
	return Scale{UserVisits: 30000, Rankings: 18000, LineItems: 24000, Orders: 6000, Customers: 1500}
}

// Generate builds `workers` deterministic partitions.
func Generate(sc Scale, workers int, seed int64) []Dataset {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]Dataset, workers)
	revenue := func() float32 {
		// Heavy-tailed ad revenue with full FP32 mantissas.
		v := rng.ExpFloat64() * 37.5
		return float32(v)
	}
	for i := 0; i < sc.UserVisits; i++ {
		parts[i%workers].UserVisits = append(parts[i%workers].UserVisits, UserVisit{
			SourceIP:  rng.Uint32(),
			DestURL:   uint32(rng.Intn(sc.Rankings + 1)),
			AdRevenue: revenue(),
			Duration:  int32(rng.Intn(3600)),
		})
	}
	for i := 0; i < sc.Rankings; i++ {
		parts[i%workers].Rankings = append(parts[i%workers].Rankings, Ranking{
			PageURL:  uint32(i),
			PageRank: int32(rng.Intn(10000)),
		})
	}
	for i := 0; i < sc.Customers; i++ {
		parts[i%workers].Customers = append(parts[i%workers].Customers, Customer{
			CustKey:    uint32(i),
			MktSegment: uint8(rng.Intn(5)),
		})
	}
	for i := 0; i < sc.Orders; i++ {
		parts[i%workers].Orders = append(parts[i%workers].Orders, Order{
			OrderKey:     uint32(i),
			CustKey:      uint32(rng.Intn(sc.Customers + 1)),
			OrderDate:    int32(9000 + rng.Intn(2500)),
			ShipPriority: int32(rng.Intn(3)),
		})
	}
	for i := 0; i < sc.LineItems; i++ {
		// Lineitems are partitioned by order key, so all items of an
		// order colocate — the layout that lets workers emit complete
		// per-order partials.
		orderKey := uint32(rng.Intn(sc.Orders + 1))
		parts[int(orderKey)%workers].LineItems = append(parts[int(orderKey)%workers].LineItems, LineItem{
			OrderKey:      orderKey,
			PartKey:       uint32(rng.Intn(2000)),
			SuppKey:       uint32(rng.Intn(100)),
			Quantity:      float32(1 + rng.Intn(50)),
			ExtendedPrice: float32(rng.ExpFloat64() * 30000),
			Discount:      float32(rng.Intn(11)) / 100,
			ShipDate:      int32(9000 + rng.Intn(2500)),
		})
	}
	return parts
}
