package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/transport"
)

func TestParseOptionsDefaults(t *testing.T) {
	o, err := parseOptions(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "127.0.0.1:9099" || o.jobs != 1 || o.workers != 4 || o.pool != 8 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.dynamic || o.capacity != 0 || o.drainTimeout != 0 {
		t.Fatalf("lifecycle defaults: %+v", o)
	}
	if o.mmsg != transport.MmsgAuto {
		t.Fatalf("mmsg default: %v", o.mmsg)
	}
}

func TestParseOptionsMmsg(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want transport.MmsgMode
	}{
		{"auto", transport.MmsgAuto},
		{"on", transport.MmsgOn},
		{"off", transport.MmsgOff},
	} {
		o, err := parseOptions([]string{"-mmsg", tc.arg})
		if err != nil {
			t.Fatalf("-mmsg %s: %v", tc.arg, err)
		}
		if o.mmsg != tc.want {
			t.Fatalf("-mmsg %s parsed as %v", tc.arg, o.mmsg)
		}
	}
	if _, err := parseOptions([]string{"-mmsg", "always"}); err == nil {
		t.Error("bad -mmsg value accepted")
	}
}

func TestParseOptionsLifecycleFlags(t *testing.T) {
	o, err := parseOptions([]string{
		"-addr", "127.0.0.1:0", "-jobs", "2", "-workers", "3", "-pool", "4",
		"-dynamic", "-capacity", "5", "-draintimeout", "250ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !o.dynamic || o.capacity != 5 || o.drainTimeout != 250*time.Millisecond {
		t.Fatalf("parsed: %+v", o)
	}
	cfg, err := o.switchConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Dynamic || cfg.Capacity != 5 || cfg.DrainTimeout != 250*time.Millisecond ||
		cfg.Jobs != 2 {
		t.Fatalf("config: %+v", cfg)
	}
	if cfg.Ports() != 5*3 {
		t.Fatalf("ports = %d, want capacity x workers", cfg.Ports())
	}
}

func TestParseOptionsRejectsGarbage(t *testing.T) {
	if _, err := parseOptions([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if _, err := parseOptions([]string{"-jobs", "2", "stray"}); err == nil {
		t.Error("positional argument accepted")
	}
	if _, err := parseOptions([]string{"-draintimeout", "soon"}); err == nil {
		t.Error("unparseable duration accepted")
	}
	if _, err := parseOptions([]string{"-weights", "1,heavy"}); err == nil {
		t.Error("unparseable weight accepted")
	}
	if _, err := parseOptions([]string{"-jobs", "2", "-weights", "1,2,4"}); err == nil {
		t.Error("more weights than jobs accepted")
	}
}

func TestParseOptionsWeights(t *testing.T) {
	o, err := parseOptions([]string{"-jobs", "3", "-weights", "1, 2,4"})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.weights) != 3 || o.weights[0] != 1 || o.weights[1] != 2 || o.weights[2] != 4 {
		t.Fatalf("weights = %v", o.weights)
	}
	cfg, err := o.switchConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Weights) != 3 || cfg.Weights[2] != 4 {
		t.Fatalf("config weights = %v", cfg.Weights)
	}
	// Fewer weights than jobs: the tail defaults to 1 at admission.
	o, err = parseOptions([]string{"-jobs", "3", "-weights", "5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.weights) != 1 || o.weights[0] != 5 {
		t.Fatalf("partial weights = %v", o.weights)
	}
	if _, err := o.switchConfig(); err != nil {
		t.Fatalf("partial weights rejected: %v", err)
	}
	// A negative weight is caught by Config.Validate.
	o, _ = parseOptions([]string{"-jobs", "1", "-weights", "-2"})
	if _, err := o.switchConfig(); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestSwitchConfigValidation(t *testing.T) {
	// Invalid service config surfaces from Validate.
	o, err := parseOptions([]string{"-jobs", "3", "-capacity", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.switchConfig(); err == nil {
		t.Error("capacity below jobs accepted")
	}
	// -workers 0 with -dynamic must reach Validate's clean error, not a
	// divide-by-zero in the headroom default.
	o, err = parseOptions([]string{"-workers", "0", "-dynamic"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.switchConfig(); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Errorf("zero workers: %v", err)
	}
	// Port budget: capacity x workers must fit the one-byte UDP frame.
	o, err = parseOptions([]string{"-jobs", "4", "-capacity", "40", "-workers", "10"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.switchConfig(); err == nil || !strings.Contains(err.Error(), "ports") {
		t.Errorf("port overflow: %v", err)
	}
}

func TestSwitchConfigDynamicHeadroom(t *testing.T) {
	// -dynamic without -capacity provisions admission headroom (2x jobs)…
	o, err := parseOptions([]string{"-dynamic", "-jobs", "3", "-workers", "2"})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := o.switchConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Capacity != 6 {
		t.Fatalf("capacity = %d, want 6", cfg.Capacity)
	}
	// …clamped to what the one-byte frame can address.
	o, err = parseOptions([]string{"-dynamic", "-jobs", "2", "-workers", "100"})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = o.switchConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Capacity != 2 || cfg.Ports() > transport.MaxWorkers {
		t.Fatalf("clamped capacity = %d, ports = %d", cfg.Capacity, cfg.Ports())
	}
	// Static switches get no implicit headroom.
	o, _ = parseOptions([]string{"-jobs", "3"})
	cfg, err = o.switchConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Capacity != 0 || cfg.Ports() != 3*4 {
		t.Fatalf("static config: capacity=%d ports=%d", cfg.Capacity, cfg.Ports())
	}
}

func TestSwitchConfigShardClamp(t *testing.T) {
	o, err := parseOptions([]string{"-jobs", "1", "-pool", "1", "-shards", "64"})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := o.switchConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shards > 2 {
		t.Fatalf("shards = %d not clamped to the 2 slots", cfg.Shards)
	}
}

// TestParentGetsDefaultRetryBudget is the regression test for a leaf that
// evicted its job on the first late uplink round: -parent must leave the
// uplink on the default retry budget (any Retries <= 0), and the resulting
// config must validate.
func TestParentGetsDefaultRetryBudget(t *testing.T) {
	o, err := parseOptions([]string{"-parent", "127.0.0.1:9099", "-leaf", "1", "-leaves", "2"})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := o.switchConfig()
	if err != nil {
		t.Fatal(err)
	}
	fab, err := transport.NewMemory(transport.MemoryConfig{
		Workers: 2, BatchHandler: func(int, [][]byte, *transport.DeliveryList) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Uplink = o.uplinkConfig(fab, fab)
	if cfg.Uplink.Retries > 0 {
		t.Fatalf("uplink retries = %d: the leaf would give up after that many stalls instead of the default budget", cfg.Uplink.Retries)
	}
	if cfg.Uplink.LeafID != 1 || cfg.Uplink.Leaves != 2 ||
		cfg.Uplink.Control != (aggservice.Observer{Addr: "127.0.0.1:9099"}) {
		t.Fatalf("uplink: %+v", cfg.Uplink)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("leaf config does not validate: %v", err)
	}
}

// TestParseListErrors pins the per-job list flags' shared error text.
func TestParseListErrors(t *testing.T) {
	for args, want := range map[string]string{
		"-weights 1,heavy":               `-weights "1,heavy": strconv.Atoi: parsing "heavy": invalid syntax`,
		"-jobs 2 -weights 1,2,4":         "-weights names 3 jobs but -jobs admits 2",
		"-jobs 1 -profiles f32,bf16":     "-profiles names 2 jobs but -jobs admits 1",
		"-jobs 1 -classes training,,":    "-classes names 3 jobs but -jobs admits 1",
		"-jobs 2 -classes query:4:64,x:": `-classes "query:4:64,x:": aggservice: workload class "x:": want training, query:TOPN:GROUPS or telemetry:GROUPS`,
	} {
		if _, err := parseOptions(strings.Fields(args)); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %s", args, err, want)
		}
	}
	o, err := parseOptions(strings.Fields("-jobs 2 -profiles f32/rne/g2,bf16/trunc -classes training,telemetry:16"))
	if err != nil || len(o.profiles) != 2 || o.profiles[1].String() != "bf16/trunc" ||
		len(o.classes) != 2 || o.classes[1] != (aggservice.AdmitClass{Class: aggservice.ClassTelemetry, Groups: 16}) {
		t.Errorf("parsed profiles %v classes %v (%v)", o.profiles, o.classes, err)
	}
}

// TestRejectsLine is the regression test for a -statsevery line that left
// WireRejects.Stale out of both its non-zero test and its format: a switch
// bouncing only stale-epoch datagrams must log them, and every field the
// struct has (or grows) must be named — all but Legacy, which is always 0.
func TestRejectsLine(t *testing.T) {
	if line := rejectsLine(aggservice.WireRejects{}); line != "" {
		t.Errorf("all-zero counters print %q", line)
	}
	if line := rejectsLine(aggservice.WireRejects{Stale: 3}); !strings.Contains(line, " stale=3") {
		t.Errorf("stale-only counters print %q", line)
	}
	var r aggservice.WireRejects
	v := reflect.ValueOf(&r).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(100 + i))
	}
	line := rejectsLine(r)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "Legacy" {
			if strings.Contains(line, "legacy=") {
				t.Errorf("rejects line %q reports the always-zero Legacy", line)
			}
			continue
		}
		want := fmt.Sprintf(" %s%s=%d", strings.ToLower(name[:1]), name[1:], 100+i)
		if !strings.Contains(line, want) {
			t.Errorf("rejects line %q does not report%s", line, want)
		}
	}
}
