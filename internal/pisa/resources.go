package pisa

import (
	"fmt"
	"strings"
)

// StageUsage is one physical stage's consumption of each resource class.
// Ingress stage i and egress stage i share physical stage i, matching
// Tofino's folded pipeline.
type StageUsage struct {
	SRAMBlocks   int
	TCAMBlocks   int
	StatefulALUs int
	VLIWSlots    int
	Crossbar     int
	ResultBuses  int
	HashBits     int
}

func (u *StageUsage) add(v StageUsage) {
	u.SRAMBlocks += v.SRAMBlocks
	u.TCAMBlocks += v.TCAMBlocks
	u.StatefulALUs += v.StatefulALUs
	u.VLIWSlots += v.VLIWSlots
	u.Crossbar += v.Crossbar
	u.ResultBuses += v.ResultBuses
	u.HashBits += v.HashBits
}

func (u StageUsage) used() bool {
	return u.SRAMBlocks|u.TCAMBlocks|u.StatefulALUs|u.VLIWSlots|u.Crossbar|u.ResultBuses|u.HashBits != 0
}

// Utilization is the compiled program's resource report, the data behind
// paper Table 3.
type Utilization struct {
	Budget Budget
	Stages []StageUsage
}

// StagesUsed counts physical stages with any resource consumption.
func (u Utilization) StagesUsed() int {
	n := 0
	for _, s := range u.Stages {
		if s.used() {
			n++
		}
	}
	return n
}

// ResourceRow is one row of the Table 3 report.
type ResourceRow struct {
	Resource string
	// TotalPct is usage summed over all stages as a percentage of the
	// whole-pipeline budget.
	TotalPct float64
	// MaxStagePct is the single worst stage's percentage of its per-stage
	// budget.
	MaxStagePct float64
}

// Rows produces the Table 3 rows.
func (u Utilization) Rows() []ResourceRow {
	type acc struct {
		get    func(StageUsage) int
		budget int
	}
	resources := []struct {
		name string
		acc
	}{
		{"SRAM", acc{func(s StageUsage) int { return s.SRAMBlocks }, u.Budget.SRAMBlocks}},
		{"TCAM", acc{func(s StageUsage) int { return s.TCAMBlocks }, u.Budget.TCAMBlocks}},
		{"Stateful ALU", acc{func(s StageUsage) int { return s.StatefulALUs }, u.Budget.StatefulALUs}},
		{"VLIW instruction slots", acc{func(s StageUsage) int { return s.VLIWSlots }, u.Budget.VLIWSlots}},
		{"Input crossbar", acc{func(s StageUsage) int { return s.Crossbar }, u.Budget.CrossbarBytes}},
		{"Result bus", acc{func(s StageUsage) int { return s.ResultBuses }, u.Budget.ResultBuses}},
		{"Hash bit", acc{func(s StageUsage) int { return s.HashBits }, u.Budget.HashBits}},
	}
	rows := make([]ResourceRow, 0, len(resources))
	for _, r := range resources {
		total, max := 0, 0
		for _, s := range u.Stages {
			v := r.get(s)
			total += v
			if v > max {
				max = v
			}
		}
		denomTotal := float64(r.budget * len(u.Stages))
		denomStage := float64(r.budget)
		row := ResourceRow{Resource: r.name}
		if denomTotal > 0 {
			row.TotalPct = 100 * float64(total) / denomTotal
			row.MaxStagePct = 100 * float64(max) / denomStage
		}
		rows = append(rows, row)
	}
	return rows
}

// String renders the report in the layout of paper Table 3.
func (u Utilization) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %18s\n", "Resource", "Total usage", "Max usage in a MAU")
	for _, r := range u.Rows() {
		fmt.Fprintf(&b, "%-24s %11.2f%% %17.2f%%\n", r.Resource, r.TotalPct, r.MaxStagePct)
	}
	fmt.Fprintf(&b, "Stages used: %d / %d\n", u.StagesUsed(), len(u.Stages))
	return b.String()
}

// accountResources computes per-physical-stage usage and verifies budgets.
func (c *compiled) accountResources() error {
	stages := c.arch.IngressStages
	if c.arch.EgressStages > stages {
		stages = c.arch.EgressStages
	}
	use := make([]StageUsage, stages)

	// A register array consumes SRAM and a stateful ALU in the stage of the
	// one table that accesses it.
	account := func(perStage [][]*cTable) {
		for s, tables := range perStage {
			for _, t := range tables {
				var tu StageUsage
				tu.ResultBuses = 1
				tu.Crossbar = ceilDiv(t.keyBits, 8)
				switch t.decl.Kind {
				case MatchExact:
					entryBits := (t.keyBits + 16) * max(len(t.decl.Entries), 1)
					tu.SRAMBlocks = max(1, ceilDiv(entryBits, c.arch.Budget.SRAMBlockBits))
					tu.HashBits = t.keyBits
				case MatchTernary, MatchLPM:
					rowBits := 2 * t.keyBits
					rowsPerBlock := max(1, c.arch.Budget.TCAMBlockBits/max(rowBits, 1))
					tu.TCAMBlocks = max(1, ceilDiv(max(len(t.decl.Entries), 1), rowsPerBlock))
				}
				regs := make(map[int]bool)
				for _, a := range t.actions {
					tu.VLIWSlots += len(a.instrs)
					if a.stateful != nil && !regs[a.stateful.regID] {
						regs[a.stateful.regID] = true
						d := c.regDecls[a.stateful.regID]
						tu.SRAMBlocks += max(1, ceilDiv(d.Size*d.Width, c.arch.Budget.SRAMBlockBits))
						tu.StatefulALUs++
					}
				}
				use[s].add(tu)
			}
		}
	}
	account(c.ingress)
	account(c.egress)

	b := c.arch.Budget
	for s, v := range use {
		checks := []struct {
			name      string
			got, have int
		}{
			{"SRAM blocks", v.SRAMBlocks, b.SRAMBlocks},
			{"TCAM blocks", v.TCAMBlocks, b.TCAMBlocks},
			{"stateful ALUs", v.StatefulALUs, b.StatefulALUs},
			{"VLIW slots", v.VLIWSlots, b.VLIWSlots},
			{"crossbar bytes", v.Crossbar, b.CrossbarBytes},
			{"result buses", v.ResultBuses, b.ResultBuses},
			{"hash bits", v.HashBits, b.HashBits},
		}
		for _, ch := range checks {
			if ch.got > ch.have {
				return fmt.Errorf("pisa: stage %d over budget: %s %d > %d", s, ch.name, ch.got, ch.have)
			}
		}
	}
	c.util = Utilization{Budget: b, Stages: use}
	return nil
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
