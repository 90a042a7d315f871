// Command fpisa-switch runs a standalone FPISA aggregation switch daemon
// over UDP. Every datagram is one transport frame, [id(1) count(2)
// {len(2) msg}·count], whose id is the sender's worker port and whose
// packets are aggservice wire v2 messages; the daemon answers results, in
// frames of its own, to the senders' addresses (broadcasting
// completions to every registered worker, or to the owning job's ports
// when several jobs share the switch).
//
// The switch is multi-tenant: -jobs admits that many jobs at start, each
// owning its own 2·pool aggregation slots, -workers workers (job j's
// worker i sends on port j·workers+i) and its own stats. Tenants need not be training jobs: -classes assigns comma-separated workload
// classes to the initial jobs (e.g. -jobs 3 -classes
// training,query:10:1024,telemetry:16; missing entries default to
// training), provisioning per-job pruning registers and group
// accumulators for query tenants or prefix-classified utilization,
// heavy-hitter and histogram sketches for telemetry tenants — all
// scheduled by the same deficit ledger and drained with fpisa-query
// -drain. Pipeline time is shared by a per-job deficit-round-
// robin scheduler: -weights assigns comma-separated weights to the initial
// jobs (e.g. -jobs 3 -weights 1,2,4; missing entries default to 1), and
// jobs admitted at runtime carry the weight named in fpisa-query -admit
// -weight. Precision is likewise per-tenant: -profiles assigns
// comma-separated numeric profiles to the initial jobs (e.g. -jobs 2
// -profiles f32/rne/g2,bf16/trunc; missing entries default to f32/trunc),
// and jobs admitted at runtime carry the profile named in fpisa-query
// -admit -profile. A datagram that is not wire v2 is dropped and counted as
// malformed. Per-job stats can be queried out-of-band with fpisa-query
// -switch (an observer frame: frame id 0xFF).
//
// With -dynamic the runtime job lifecycle control plane is enabled: an
// operator admits and evicts jobs without restarting the switch
// (fpisa-query -admit / -evict), -capacity provisions job ids (and their
// ports) beyond the initial tenant set, and -draintimeout bounds how long
// an evicted job's in-flight chunks may keep it draining. Every lifecycle
// transition logs a stats line.
//
// The aggregation service is sharded across parallel pipeline replicas
// (-shards) and the socket is drained by transport.UDPServer's reader
// pool, so packets for different slots aggregate concurrently. -mmsg
// selects the kernel-batched wire backend (sendmmsg/recvmmsg, one syscall
// per datagram burst; "auto" uses it where the platform supports it,
// "off" forces the portable per-datagram loop); the resolved backend is
// echoed in the startup banner and its syscall counters — including
// failed downlink datagrams (sendErrors) — appear in the -statsevery
// "wire:" line.
//
// Switches compose into aggregation trees: -parent host:port makes this
// switch a LEAF that re-emits each completed chunk upward as an ADD to
// the parent switch (an ordinary fpisa-switch whose -workers equals the
// leaf count) and releases results to its own workers only when the
// parent's aggregate returns. -leaf/-leaves name this switch's worker
// port at the parent; admission is negotiated up the tree (the leaf's
// initial jobs are admitted at the parent over an observer frame
// before the leaf starts serving, echoing the parent incarnation epoch
// that fences every cross-level datagram). Both levels must run the same
// -pool. See examples/tree for a full 2-level deployment.
//
//	fpisa-switch -addr 127.0.0.1:9099 -jobs 2 -workers 4 -pool 8 -shards 4 -dynamic -capacity 4
//	fpisa-switch -addr 127.0.0.1:9100 -workers 3 -parent 127.0.0.1:9099 -leaf 0 -leaves 4
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/core"
	"fpisa/internal/pisa"
	"fpisa/internal/transport"
)

// options is the daemon's parsed command line, kept separate from main so
// the flag surface is testable without sockets.
type options struct {
	addr         string
	jobs         int
	capacity     int
	workers      int
	pool         int
	weights      []int
	profiles     []core.NumericProfile
	classes      []aggservice.AdmitClass
	modules      int
	shards       int
	dynamic      bool
	drainTimeout time.Duration
	extended     bool
	full         bool
	statsEvery   time.Duration
	parent       string
	leaf         int
	leaves       int
	mmsg         transport.MmsgMode
}

// parseOptions parses args (no program name) into options.
func parseOptions(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("fpisa-switch", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:9099", "UDP listen address")
	fs.IntVar(&o.jobs, "jobs", 1, "tenant jobs admitted at start")
	fs.IntVar(&o.capacity, "capacity", 0, "job ids provisioned for runtime admission (0 = jobs, or 2x jobs with -dynamic)")
	fs.IntVar(&o.workers, "workers", 4, "number of workers per job")
	fs.IntVar(&o.pool, "pool", 8, "aggregation slot pool per job")
	weights := fs.String("weights", "", "comma-separated fair-scheduler weights for the initial jobs, e.g. 1,2,4 (missing = 1)")
	profiles := fs.String("profiles", "", "comma-separated numeric profiles for the initial jobs, e.g. f32/rne/g2,bf16/trunc (missing = f32/trunc)")
	classes := fs.String("classes", "", "comma-separated workload classes for the initial jobs, e.g. training,query:10:1024,telemetry:16 (missing = training)")
	fs.IntVar(&o.modules, "modules", 1, "vector elements per packet")
	fs.IntVar(&o.shards, "shards", runtime.GOMAXPROCS(0), "parallel pipeline replicas (capped at capacity*2*pool)")
	fs.BoolVar(&o.dynamic, "dynamic", false, "enable the runtime admit/evict control plane (fpisa-query -admit/-evict)")
	fs.DurationVar(&o.drainTimeout, "draintimeout", 0, "bound on an evicted job's drain (0 = default)")
	fs.BoolVar(&o.extended, "extended", false, "enable the §4.2 hardware extensions")
	fs.BoolVar(&o.full, "full", false, "full FPISA (needs -extended)")
	fs.DurationVar(&o.statsEvery, "statsevery", 0, "log per-job stats at this interval (0 = off)")
	fs.StringVar(&o.parent, "parent", "", "parent switch address: run as a LEAF forwarding completed chunks upward")
	fs.IntVar(&o.leaf, "leaf", 0, "this leaf's index at the parent (its worker port, with -parent)")
	fs.IntVar(&o.leaves, "leaves", 1, "total leaves feeding the parent (the parent's -workers, with -parent)")
	mmsg := fs.String("mmsg", "auto", "kernel-batched UDP I/O: auto (sendmmsg/recvmmsg where supported), on, off (per-datagram loop)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	mode, err := transport.ParseMmsgMode(*mmsg)
	if err != nil {
		return nil, fmt.Errorf("-mmsg %q: want auto, on or off", *mmsg)
	}
	o.mmsg = mode
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.parent != "" && (o.leaves < 1 || o.leaf < 0 || o.leaf >= o.leaves) {
		return nil, fmt.Errorf("-leaf %d -leaves %d: the leaf index must name one of the parent's worker ports", o.leaf, o.leaves)
	}
	if o.weights, err = parseList("weights", *weights, o.jobs, strconv.Atoi); err != nil {
		return nil, err
	}
	if o.profiles, err = parseList("profiles", *profiles, o.jobs, core.ParseProfile); err != nil {
		return nil, err
	}
	if o.classes, err = parseList("classes", *classes, o.jobs, aggservice.ParseClass); err != nil {
		return nil, err
	}
	return o, nil
}

// parseList parses a comma-separated per-job flag value — one entry for each
// of the first len(list) initially admitted jobs, at most jobs of them.
func parseList[T any](flag, value string, jobs int, parse func(string) (T, error)) ([]T, error) {
	if value == "" {
		return nil, nil
	}
	var list []T
	for _, field := range strings.Split(value, ",") {
		v, err := parse(strings.TrimSpace(field))
		if err != nil {
			return nil, fmt.Errorf("-%s %q: %v", flag, value, err)
		}
		list = append(list, v)
	}
	if len(list) > jobs {
		return nil, fmt.Errorf("-%s names %d jobs but -jobs admits %d", flag, len(list), jobs)
	}
	return list, nil
}

// rejectsLine formats the -statsevery "rejects:" line, naming every
// WireRejects field but the always-zero Legacy; it is empty while every
// counter is zero.
func rejectsLine(r aggservice.WireRejects) string {
	if r == (aggservice.WireRejects{}) {
		return ""
	}
	return fmt.Sprintf("rejects: malformed=%d badJob=%d crossJob=%d draining=%d backpressure=%d stale=%d badClass=%d",
		r.Malformed, r.BadJob, r.CrossJob, r.Draining, r.Backpressure, r.Stale, r.BadClass)
}

// switchConfig turns the flags into a validated service configuration.
func (o *options) switchConfig() (aggservice.Config, error) {
	arch := pisa.BaseArch()
	if o.extended {
		arch = pisa.ExtendedArch()
	}
	mode := core.ModeApprox
	if o.full {
		mode = core.ModeFull
	}
	capacity := o.capacity
	if capacity == 0 && o.dynamic && o.workers > 0 {
		// Dynamic switches default to admission headroom: twice the
		// initial tenant set, within what the one-byte frame addresses.
		capacity = 2 * o.jobs
		if max := transport.MaxWorkers / o.workers; capacity > max {
			capacity = max
		}
		if capacity < o.jobs {
			capacity = o.jobs
		}
	}
	cfg := aggservice.Config{
		Workers: o.workers, Pool: o.pool, Modules: o.modules, Shards: o.shards,
		Jobs: o.jobs, Capacity: capacity,
		Weights: o.weights, Profiles: o.profiles, Classes: o.classes,
		Dynamic: o.dynamic, DrainTimeout: o.drainTimeout,
		Mode: mode, Arch: arch,
	}
	cfg.ClampShards()
	if err := cfg.Validate(); err != nil {
		return aggservice.Config{}, err
	}
	if cfg.Ports() > transport.MaxWorkers {
		return aggservice.Config{}, fmt.Errorf("%d provisioned jobs x %d workers = %d ports exceed the %d the UDP frame addresses",
			cfg.Ports()/o.workers, o.workers, cfg.Ports(), transport.MaxWorkers)
	}
	return cfg, nil
}

// uplinkConfig is the leaf role -parent asks for: partial sums climb over
// fab, finals fan back down through push, and admission is negotiated over
// the parent's observer frame.
func (o *options) uplinkConfig(fab transport.Fabric, push transport.Pusher) *aggservice.UplinkConfig {
	return &aggservice.UplinkConfig{
		Fabric: fab, LeafID: o.leaf, Leaves: o.leaves,
		Control: aggservice.Observer{Addr: o.parent},
		Push:    push,
	}
}

// mode and arch echoes for the startup banner.
func (o *options) modeName() string {
	if o.full {
		return "full"
	}
	return "approx"
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		log.Fatalf("switch: %v", err)
	}
	cfg, err := o.switchConfig()
	if err != nil {
		log.Fatalf("switch: %v", err)
	}

	udpAddr, err := net.ResolveUDPAddr("udp", o.addr)
	if err != nil {
		log.Fatalf("resolve: %v", err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer conn.Close()
	// The socket comes up before the switch: a leaf's uplink pushes the
	// parent's finals back down through this server, and admission for the
	// initial jobs is negotiated at the parent during NewSwitch.
	srv, err := transport.NewUDPServer(conn, cfg.Ports(), transport.WithMmsg(o.mmsg))
	if err != nil {
		log.Fatalf("switch: %v", err)
	}
	if o.parent != "" {
		parentAddr, err := net.ResolveUDPAddr("udp", o.parent)
		if err != nil {
			log.Fatalf("resolve -parent: %v", err)
		}
		// The uplink dials one parent worker port per job: job j sends on
		// port j*leaves+leaf, so the client fabric must address the whole
		// provisioned job set across every sibling leaf.
		upFab, err := transport.DialUDP(parentAddr, cfg.Ports()/cfg.Workers*o.leaves, transport.WithMmsg(o.mmsg))
		if err != nil {
			log.Fatalf("dial -parent: %v", err)
		}
		defer upFab.Close()
		cfg.Uplink = o.uplinkConfig(upFab, srv)
		log.Printf("leaf %d/%d: forwarding aggregates to parent %s", o.leaf, o.leaves, parentAddr)
	}
	sw, err := aggservice.NewSwitch(cfg)
	if err != nil {
		log.Fatalf("switch: %v", err)
	}
	// The lifecycle stats line: one log per admit / drain / release, with
	// the incarnation's wire epoch and, on the way out, its final counters.
	sw.OnLifecycle = func(job int, ev aggservice.LifecycleEvent) {
		st, _ := sw.JobStats(job)
		epoch := sw.JobEpoch(job)
		if ev == aggservice.EventEvicted {
			epoch-- // the release already advanced the id to its next epoch
		}
		log.Printf("lifecycle: job %d %s (epoch %d) adds=%d chunks=%d outstanding=%d cacheHits=%d",
			job, ev, epoch, st.Adds, st.Completions, st.Outstanding, st.CacheHits)
	}

	dyn := "static tenant set"
	if cfg.Dynamic {
		dyn = "dynamic admit/evict enabled"
	}
	log.Printf("fpisa-switch (%s, %s, %d shards) listening on %s: %d/%d jobs admitted x %d workers (%s)",
		o.modeName(), cfg.Arch.Name, sw.Shards(), conn.LocalAddr(), o.jobs, sw.Jobs(), o.workers, dyn)
	log.Printf("wire I/O backend: %s (-mmsg %s)", srv.Backend(), o.mmsg)
	for j := 0; j < sw.Jobs(); j++ {
		if st, _ := sw.JobStats(j); st.Phase != aggservice.PhaseVacant {
			log.Printf("  job %d: ports %d..%d, %d slots, weight %d, profile %s, class %v", j,
				cfg.Port(j, 0), cfg.Port(j, o.workers-1), 2*cfg.Pool, st.Weight, st.Profile, st.Class)
		}
	}
	log.Printf("pipeline resource report:\n%s", sw.Utilization())

	if o.statsEvery > 0 {
		go func() {
			tick := time.NewTicker(o.statsEvery)
			defer tick.Stop()
			for range tick.C {
				for j := 0; j < sw.Jobs(); j++ {
					st, _ := sw.JobStats(j)
					if st.Phase == aggservice.PhaseVacant && st.Adds == 0 {
						continue
					}
					log.Printf("job %d (%s, weight %d): adds=%d retrans=%d chunks=%d schedDefers=%d outstanding=%d cacheHits=%d cacheBytes=%d coalesced=%d",
						j, st.Phase, st.Weight, st.Adds, st.Retransmits, st.Completions,
						st.SchedDefers, st.Outstanding, st.CacheHits, st.CacheBytes, st.Coalesced)
				}
				if line := rejectsLine(sw.Rejects()); line != "" {
					log.Print(line)
				}
				ss := srv.SyscallStats()
				log.Printf("wire: syscalls=%d (sendmmsg=%d recvmmsg=%d fallback=%d) datagrams=%d dgrams/syscall=%.2f sendErrors=%d",
					ss.Syscalls(), ss.Sendmmsg, ss.Recvmmsg, ss.SendFallback+ss.RecvFallback,
					ss.SentDatagrams+ss.RecvDatagrams, ss.DatagramsPerSyscall(), ss.SendErrors)
			}
		}()
	}

	if err := srv.Serve(sw.HandleBatch); err != nil {
		log.Fatalf("fpisa-switch: %v", err)
	}
	log.Fatal("fpisa-switch: socket closed")
}
