package query

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	parts := Generate(DefaultScale(), 2, 7)
	return NewEngine(parts)
}

func TestTable2Registry(t *testing.T) {
	descs := Table2()
	if len(descs) != 5 {
		t.Fatalf("Table 2 has %d queries, want 5", len(descs))
	}
	wantOps := map[string]string{
		"Top-N":                             "Comparison",
		"Group-by-having max":               "Comparison",
		"Group-by (hash-based aggregation)": "Addition",
		"TPC-H Q3":                          "Comparison",
		"TPC-H Q20":                         "Addition",
	}
	for _, d := range descs {
		if wantOps[d.Name] != d.FPOp {
			t.Errorf("%s: FP op %q, want %q", d.Name, d.FPOp, wantOps[d.Name])
		}
	}
	if _, err := QueryByName("Top-N"); err != nil {
		t.Error(err)
	}
	if _, err := QueryByName("nope"); err == nil {
		t.Error("unknown query accepted")
	}
}

func TestGenerateDeterministicAndPartitioned(t *testing.T) {
	a := Generate(DefaultScale(), 2, 1)
	b := Generate(DefaultScale(), 2, 1)
	if len(a[0].UserVisits) != len(b[0].UserVisits) ||
		a[0].UserVisits[0] != b[0].UserVisits[0] {
		t.Error("generator not deterministic")
	}
	// Lineitems partition by order key.
	for w, part := range a {
		for _, l := range part.LineItems {
			if int(l.OrderKey)%2 != w {
				t.Fatalf("lineitem order %d in partition %d", l.OrderKey, w)
			}
		}
	}
	total := len(a[0].UserVisits) + len(a[1].UserVisits)
	if total != DefaultScale().UserVisits {
		t.Errorf("uservisits total %d", total)
	}
}

func resultsEqual(a, b Result) bool {
	if len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i].Key != b.Entries[i].Key || a.Entries[i].Val != b.Entries[i].Val {
			return false
		}
	}
	return true
}

func resultsClose(a, b Result, rel float64) bool {
	if len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i].Key != b.Entries[i].Key {
			return false
		}
		diff := math.Abs(a.Entries[i].Val - b.Entries[i].Val)
		if diff > rel*math.Abs(b.Entries[i].Val)+1e-6 {
			return false
		}
	}
	return true
}

func TestBaselineMatchesReference(t *testing.T) {
	e := newEngine(t)
	for _, q := range Queries() {
		ref := e.Reference(q)
		got, cost := e.RunBaseline(q)
		if !resultsEqual(got, ref) {
			t.Errorf("%s: baseline result differs from reference", q.Desc.Name)
		}
		if cost.RowsToMaster != cost.WorkerRows {
			t.Errorf("%s: baseline must ship every row", q.Desc.Name)
		}
	}
}

func TestSwitchPlanCorrectness(t *testing.T) {
	e := newEngine(t)
	for _, q := range Queries() {
		ref := e.Reference(q)
		got, _, err := e.RunSwitch(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Desc.Name, err)
		}
		switch q.Desc.Method {
		case Pruning:
			// Pruning is lossless: exact equality.
			if !resultsEqual(got, ref) {
				t.Errorf("%s: pruned result differs from reference", q.Desc.Name)
			}
		case Aggregation:
			// FPISA (full) sums match float64 reference within FP32
			// aggregation accuracy.
			if !resultsClose(got, ref, 1e-5) {
				t.Errorf("%s: aggregated result outside tolerance", q.Desc.Name)
			}
		}
	}
}

func TestPruningReducesTraffic(t *testing.T) {
	e := newEngine(t)
	for _, q := range Queries() {
		if q.Desc.Method != Pruning {
			continue
		}
		_, cost, err := e.RunSwitch(q)
		if err != nil {
			t.Fatal(err)
		}
		if cost.RowsToMaster*5 > cost.WorkerRows {
			t.Errorf("%s: pruning passed %d of %d rows (<5x reduction)",
				q.Desc.Name, cost.RowsToMaster, cost.WorkerRows)
		}
	}
}

func TestAggregationEliminatesDataPlaneRows(t *testing.T) {
	e := newEngine(t)
	for _, q := range Queries() {
		if q.Desc.Method != Aggregation {
			continue
		}
		_, cost, err := e.RunSwitch(q)
		if err != nil {
			t.Fatal(err)
		}
		if cost.RowsToMaster != 0 {
			t.Errorf("%s: aggregation shipped %d rows", q.Desc.Name, cost.RowsToMaster)
		}
		if cost.SwitchReads == 0 || cost.SwitchReads > q.Groups {
			t.Errorf("%s: switch reads %d (groups %d)", q.Desc.Name, cost.SwitchReads, q.Groups)
		}
	}
}

// TestFig13SpeedupShape verifies the headline result: in-switch FP query
// processing beats the Spark-like baseline by roughly the paper's 1.9–2.7x.
func TestFig13SpeedupShape(t *testing.T) {
	e := newEngine(t)
	const workers = 2
	for _, q := range Queries() {
		_, bCost := e.RunBaseline(q)
		_, sCost, err := e.RunSwitch(q)
		if err != nil {
			t.Fatal(err)
		}
		speedup := bCost.BaselineSeconds(workers) / sCost.SwitchSeconds(workers)
		if speedup < 1.5 || speedup > 3.5 {
			t.Errorf("%s: speedup %.2fx outside the 1.9-2.7x band (paper Fig. 13)",
				q.Desc.Name, speedup)
		}
	}
}

func TestCostModelMonotonic(t *testing.T) {
	small := Cost{WorkerRows: 100, RowsToMaster: 100, MasterRows: 100}
	big := Cost{WorkerRows: 100000, RowsToMaster: 100000, MasterRows: 100000}
	if big.BaselineSeconds(2) <= small.BaselineSeconds(2) {
		t.Error("baseline time not monotonic in rows")
	}
	if big.SwitchSeconds(2) <= small.SwitchSeconds(2) {
		t.Error("switch time not monotonic in rows")
	}
	// More workers = faster scans.
	if big.BaselineSeconds(8) >= big.BaselineSeconds(1) {
		t.Error("workers do not parallelize scans")
	}
}

func TestQ3JoinSemantics(t *testing.T) {
	// Hand-built micro dataset: one qualifying order, one not.
	ds := Dataset{
		Customers: []Customer{{CustKey: 1, MktSegment: q3Segment}, {CustKey: 2, MktSegment: 0}},
		Orders: []Order{
			{OrderKey: 10, CustKey: 1, OrderDate: q3Date - 1}, // qualifies
			{OrderKey: 11, CustKey: 2, OrderDate: q3Date - 1}, // wrong segment
			{OrderKey: 12, CustKey: 1, OrderDate: q3Date + 1}, // too late
		},
		LineItems: []LineItem{
			{OrderKey: 10, ExtendedPrice: 100, Discount: 0.1, ShipDate: q3Date + 1},
			{OrderKey: 10, ExtendedPrice: 50, Discount: 0, ShipDate: q3Date + 1},
			{OrderKey: 10, ExtendedPrice: 50, Discount: 0, ShipDate: q3Date - 1}, // shipped early
			{OrderKey: 11, ExtendedPrice: 999, Discount: 0, ShipDate: q3Date + 1},
			{OrderKey: 12, ExtendedPrice: 999, Discount: 0, ShipDate: q3Date + 1},
		},
	}
	rows := q3WorkerRows(&ds)
	if len(rows) != 1 || rows[0].Key != 10 {
		t.Fatalf("rows = %+v", rows)
	}
	if math.Abs(float64(rows[0].Val)-140) > 1e-4 {
		t.Errorf("revenue = %g, want 140", rows[0].Val)
	}
}

// rowQuery builds a synthetic query over literal rows so the pruner's
// register behavior is testable row by row: each worker partition packs its
// rows into UserVisits (SourceIP=Key, AdRevenue=Val).
func rowQuery(desc Descriptor, topN, groups int, finish func([]Row, int) Result, parts ...[]Row) (Query, *Engine) {
	ds := make([]Dataset, len(parts))
	for w, rows := range parts {
		for _, r := range rows {
			ds[w].UserVisits = append(ds[w].UserVisits, UserVisit{SourceIP: r.Key, AdRevenue: r.Val})
		}
	}
	q := Query{
		Desc: desc, TopN: topN, Groups: groups,
		WorkerRows: func(d *Dataset) []Row {
			rows := make([]Row, len(d.UserVisits))
			for i, uv := range d.UserVisits {
				rows[i] = Row{Key: uv.SourceIP, Val: uv.AdRevenue}
			}
			return rows
		},
		Finish: finish,
	}
	return q, NewEngine(ds)
}

// TestGroupMaxPruningCollision is the regression test for the lossy
// group-max pruner: with Groups < key cardinality, distinct keys share a
// register bucket (Key % Groups), and the old pruner dropped every row of
// a colliding weaker group once a stronger group owned the bucket — the
// weaker group's max vanished from the "lossless" result entirely. The
// collision-aware pruner must reproduce the exact per-key maxima.
func TestGroupMaxPruningCollision(t *testing.T) {
	// Keys 1 and 3 collide in bucket 1 (Groups=2); key 1 dominates. Key 3's
	// rows arrive strictly after key 1's max, the order the bug ate them in.
	q, e := rowQuery(Descriptor{Name: "collision", Method: Pruning}, 0, 2, finishGroupMax,
		[]Row{{Key: 1, Val: 100}, {Key: 1, Val: 50}, {Key: 3, Val: 5}},
		[]Row{{Key: 3, Val: 4}, {Key: 2, Val: 8}, {Key: 1, Val: 70}, {Key: 3, Val: 6}},
	)
	got, cost, err := e.RunSwitch(q)
	if err != nil {
		t.Fatal(err)
	}
	want := e.Reference(q)
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("pruned result has %d groups, reference %d: %v vs %v",
			len(got.Entries), len(want.Entries), got.Entries, want.Entries)
	}
	for i, en := range want.Entries {
		if got.Entries[i] != en {
			t.Fatalf("entry %d: got %v, want %v", i, got.Entries[i], en)
		}
	}
	// The weaker colliding group (key 3, max 6) must be present.
	found := false
	for _, en := range got.Entries {
		if en.Key == 3 && en.Val == 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("colliding group 3 lost: %v", got.Entries)
	}
	// The pruner still prunes: key 3's shadowed first rows need not all
	// cross, and same-key duplicates below the max are dropped.
	if cost.RowsToMaster >= cost.WorkerRows {
		t.Fatalf("no pruning happened: %d of %d rows crossed", cost.RowsToMaster, cost.WorkerRows)
	}
}

// TestGroupMaxPruningCollisionRandomized cross-checks the collision-aware
// pruner against the exact reference over many keys squeezed into few
// buckets — every bucket collides.
func TestGroupMaxPruningCollisionRandomized(t *testing.T) {
	var parts [][]Row
	// 64 keys over 4 buckets, deterministic pseudo-random values.
	v := uint32(12345)
	for w := 0; w < 3; w++ {
		var rows []Row
		for i := 0; i < 400; i++ {
			v = v*1664525 + 1013904223
			rows = append(rows, Row{Key: v % 64, Val: float32(v%100000) / 7})
		}
		parts = append(parts, rows)
	}
	q, e := rowQuery(Descriptor{Name: "collision-rand", Method: Pruning}, 0, 4, finishGroupMax, parts...)
	got, cost, err := e.RunSwitch(q)
	if err != nil {
		t.Fatal(err)
	}
	want := e.Reference(q)
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("pruned result has %d groups, reference %d", len(got.Entries), len(want.Entries))
	}
	for i, en := range want.Entries {
		if got.Entries[i] != en {
			t.Fatalf("entry %d: got %v, want %v", i, got.Entries[i], en)
		}
	}
	if cost.RowsToMaster >= cost.WorkerRows {
		t.Fatal("no pruning happened")
	}
}

// TestTopNBoundaryTie is the regression test for the boundary-tie
// divergence: the old pruner dropped rows whose ordered key equaled the
// register minimum, but the baseline's sortResult breaks equal values by
// ascending key — so a tied row with a smaller key belongs in the exact
// result and was lost.
func TestTopNBoundaryTie(t *testing.T) {
	// After (5,10),(2,7) the registers hold {10,7}; (1,10) evicts the 7;
	// then (3,10) ties the boundary. Exact top-2 is keys 1 and 3 (ascending
	// key among the three 10s) — the old pruner answered keys 1 and 5.
	q, e := rowQuery(Descriptor{Name: "tie", Method: Pruning}, 2, 0, finishTopN,
		[]Row{{Key: 5, Val: 10}, {Key: 2, Val: 7}, {Key: 1, Val: 10}, {Key: 3, Val: 10}},
	)
	got, _, err := e.RunSwitch(q)
	if err != nil {
		t.Fatal(err)
	}
	want := e.Reference(q)
	if len(got.Entries) != 2 || got.Entries[0] != want.Entries[0] || got.Entries[1] != want.Entries[1] {
		t.Fatalf("top-2 with boundary ties: got %v, want %v", got.Entries, want.Entries)
	}
	if want.Entries[0] != (KV{Key: 1, Val: 10}) || want.Entries[1] != (KV{Key: 3, Val: 10}) {
		t.Fatalf("reference itself wrong: %v", want.Entries)
	}
}

// scanTopN is the Top-N pruner as a linear scan: every full-register row
// looks for the first minimum afresh, replaces it when the row reaches it
// (ties admitted), and survives exactly then.
type scanTopN struct {
	reg []uint32
	n   int
}

func (p *scanTopN) admit(val float32) bool {
	k := orderedKey(val)
	if p.n < len(p.reg) {
		p.reg[p.n] = k
		p.n++
		return true
	}
	mi := 0
	for i, r := range p.reg {
		if r < p.reg[mi] {
			mi = i
		}
	}
	if k >= p.reg[mi] {
		p.reg[mi] = k
		return true
	}
	return false
}

// TestTopNPrunerMatchesLinearScan: the pruner that keeps its minimum's
// index forwards exactly the rows the linear scan forwards, in order, on
// random Top-N streams over two workers drawn from a few values — so ties
// at and above the minimum are the common case. Each row's key is its
// position, so a survivor names the row it was.
func TestTopNPrunerMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var got []Row
	keep := func(rows []Row, _ int) Result {
		got = rows
		return Result{}
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		values := []float32{-3, -1, 0, 1, 2, 2.5, float32(math.Copysign(0, -1))}[:2+rng.Intn(6)]
		parts := make([][]Row, 2)
		key := uint32(0)
		for w := range parts {
			for i := 0; i < 150; i++ {
				parts[w] = append(parts[w], Row{Key: key, Val: values[rng.Intn(len(values))]})
				key++
			}
		}
		q, e := rowQuery(Descriptor{Name: "scan", Method: Pruning}, n, 0, keep, parts...)
		got = nil
		if _, _, err := e.RunSwitch(q); err != nil {
			t.Fatal(err)
		}
		model := &scanTopN{reg: make([]uint32, n)}
		var want []Row
		for _, rows := range parts {
			for _, r := range rows {
				if model.admit(r.Val) {
					want = append(want, r)
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (N=%d, values %v): survivors %v, linear scan %v", trial, n, values, got, want)
		}
	}
}

// TestGroupedPlansRefuseZeroGroups: both grouped plans fail fast with the
// typed sentinel instead of dividing by zero.
func TestGroupedPlansRefuseZeroGroups(t *testing.T) {
	qp, e := rowQuery(Descriptor{Name: "nogroups", Method: Pruning}, 0, 0, finishGroupMax,
		[]Row{{Key: 1, Val: 1}})
	if _, _, err := e.RunSwitch(qp); !errors.Is(err, ErrNoGroups) {
		t.Fatalf("group-max pruning with 0 groups: %v", err)
	}
	qa, ea := rowQuery(Descriptor{Name: "nogroups-agg", Method: Aggregation}, 0, 0, finishGroupSum,
		[]Row{{Key: 1, Val: 1}})
	if _, _, err := ea.RunSwitch(qa); !errors.Is(err, ErrNoGroups) {
		t.Fatalf("aggregation with 0 groups: %v", err)
	}
}
