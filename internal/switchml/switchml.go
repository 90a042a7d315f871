// Package switchml implements the SwitchML baseline (Sapio et al.,
// NSDI'21) the paper compares against: in-network aggregation of gradient
// vectors using fixed-point arithmetic, because the switch cannot add
// floats. Each chunk takes two protocol phases:
//
//  1. workers report the chunk's maximum FP32 exponent; the switch
//     integer-maxes them and broadcasts a per-chunk scaling factor;
//  2. workers quantize the chunk to int32 with that factor (CPU work!),
//     the switch adds integers, broadcasts the sums, and workers
//     dequantize.
//
// The extra round and the host-side conversions are exactly the overheads
// FPISA eliminates (§5.2.3). Slot management mirrors internal/aggservice
// (self-clocked pool, two banks, result caching for loss recovery).
package switchml

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"fpisa/internal/payload"
	"fpisa/internal/transport"
)

// Message types.
const (
	MsgExponent = 0 // worker → switch: chunk max exponent
	MsgScale    = 1 // switch → workers: agreed scaling exponent
	MsgData     = 2 // worker → switch: quantized chunk
	MsgResult   = 3 // switch → workers: integer sums
)

// Config parameterizes the system.
type Config struct {
	Workers int
	// Pool is the in-flight chunk window per bank.
	Pool int
	// Elems is the number of vector elements per packet (the paper's
	// SwitchML uses 256-element packets).
	Elems int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Workers < 1 || c.Pool < 1 || c.Elems < 1 {
		return fmt.Errorf("switchml: bad config %+v", c)
	}
	return nil
}

const hdr = 5 // type(1) + chunk(4)

// Switch is the integer-aggregation switch with the scaling-factor round.
type Switch struct {
	cfg  Config
	mu   sync.Mutex
	slot []slotState
	// Stats
	expPkts, dataPkts, dups uint64
}

type slotState struct {
	chunk      int64
	maxExp     int
	seenExp    []bool
	nExp       int
	scale      int
	scalePkt   []byte
	sums       []int32
	seenData   []bool
	nData      int
	resultPkt  []byte
	overflowed bool
}

// NewSwitch builds the switch state.
func NewSwitch(cfg Config) (*Switch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Switch{cfg: cfg, slot: make([]slotState, 2*cfg.Pool)}
	for i := range s.slot {
		s.slot[i] = slotState{
			chunk:    -1,
			seenExp:  make([]bool, cfg.Workers),
			seenData: make([]bool, cfg.Workers),
			sums:     make([]int32, cfg.Elems),
		}
	}
	return s, nil
}

func (s *Switch) slotOf(chunk uint32) int {
	pool := uint32(s.cfg.Pool)
	return int(chunk%pool + pool*(chunk/pool%2))
}

// HandleBatch implements transport.BatchHandler.
func (s *Switch) HandleBatch(worker int, pkts [][]byte, out *transport.DeliveryList) {
	for _, pkt := range pkts {
		s.handle(worker, pkt, out)
	}
}

// handle runs the slot protocol for one packet, appending any replies to
// out.
func (s *Switch) handle(worker int, pkt []byte, out *transport.DeliveryList) {
	if len(pkt) < hdr || worker >= s.cfg.Workers {
		return
	}
	chunk := binary.BigEndian.Uint32(pkt[1:])

	s.mu.Lock()
	defer s.mu.Unlock()
	st := &s.slot[s.slotOf(chunk)]

	switch {
	case int64(chunk) < st.chunk:
		return // stale
	case int64(chunk) > st.chunk:
		st.chunk = int64(chunk)
		st.maxExp, st.nExp, st.nData = 0, 0, 0
		st.scalePkt, st.resultPkt = nil, nil
		st.overflowed = false
		for i := range st.seenExp {
			st.seenExp[i], st.seenData[i] = false, false
		}
		for i := range st.sums {
			st.sums[i] = 0
		}
	}

	switch pkt[0] {
	case MsgExponent:
		if len(pkt) < hdr+2 {
			return
		}
		if st.seenExp[worker] {
			s.dups++
			if st.scalePkt != nil {
				out.Unicast(worker, st.scalePkt)
			}
			return
		}
		st.seenExp[worker] = true
		st.nExp++
		s.expPkts++
		if e := int(binary.BigEndian.Uint16(pkt[hdr:])); e > st.maxExp {
			st.maxExp = e // integer max — the one FP-ish op the switch can do
		}
		if st.nExp < s.cfg.Workers {
			return
		}
		st.scale = payload.ScaleExpFor(st.maxExp, s.cfg.Workers)
		scale := make([]byte, hdr+2)
		scale[0] = MsgScale
		binary.BigEndian.PutUint32(scale[1:], chunk)
		binary.BigEndian.PutUint16(scale[hdr:], uint16(int16(st.scale)))
		st.scalePkt = scale
		out.Broadcast(scale)

	case MsgData:
		if len(pkt) < hdr+4*s.cfg.Elems {
			return
		}
		if st.seenData[worker] {
			s.dups++
			if st.resultPkt != nil {
				out.Unicast(worker, st.resultPkt)
			}
			return
		}
		st.seenData[worker] = true
		st.nData++
		s.dataPkts++
		for i := 0; i < s.cfg.Elems; i++ {
			q := int32(binary.BigEndian.Uint32(pkt[hdr+4*i:]))
			old := st.sums[i]
			st.sums[i] += q // 32-bit wraparound, like the switch register
			if (old^st.sums[i])&(q^st.sums[i]) < 0 {
				st.overflowed = true
			}
		}
		if st.nData < s.cfg.Workers {
			return
		}
		res := make([]byte, hdr+4*s.cfg.Elems+1)
		res[0] = MsgResult
		binary.BigEndian.PutUint32(res[1:], chunk)
		for i, v := range st.sums {
			binary.BigEndian.PutUint32(res[hdr+4*i:], uint32(v))
		}
		if st.overflowed {
			res[hdr+4*s.cfg.Elems] = 1
		}
		st.resultPkt = res
		out.Broadcast(res)
	}
}

// Stats returns protocol counters.
func (s *Switch) Stats() (expPkts, dataPkts, dups uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.expPkts, s.dataPkts, s.dups
}

// Worker is the SwitchML host side. Its Reduce performs, per chunk, the
// exponent round, the quantization (real CPU work), the data round and the
// dequantization.
type Worker struct {
	ID     int
	Fabric transport.Fabric
	Cfg    Config
	// Timeout is the receive timeout per stall. Values <= 0 apply 200 ms.
	Timeout time.Duration
	// Retries bounds retransmission rounds per stall. Values <= 0 apply 50.
	Retries int
	// SentPackets counts all transmissions; QuantizeOps counts elements
	// quantized+dequantized (the CPU cost FPISA avoids).
	SentPackets uint64
	QuantizeOps uint64
}

type chunkProgress int

const (
	stageExp chunkProgress = iota
	stageData
	stageDone
)

// Reduce aggregates vec with the other workers.
func (w *Worker) Reduce(vec []float32) ([]float32, error) {
	cfg := w.Cfg
	timeout := w.Timeout
	if timeout <= 0 {
		timeout = 200 * time.Millisecond
	}
	retries := w.Retries
	if retries <= 0 {
		retries = 50
	}

	nChunks := (len(vec) + cfg.Elems - 1) / cfg.Elems
	out := make([]float32, len(vec))
	stage := make([]chunkProgress, nChunks)
	started := make([]bool, nChunks)
	scales := make([]int, nChunks)
	nDone := 0

	chunkSlice := func(c int) []float32 {
		vals := make([]float32, cfg.Elems)
		copy(vals, vec[c*cfg.Elems:min(len(vec), (c+1)*cfg.Elems)])
		return vals
	}
	sendExp := func(c int) error {
		w.SentPackets++
		pkt := make([]byte, hdr+2)
		pkt[0] = MsgExponent
		binary.BigEndian.PutUint32(pkt[1:], uint32(c))
		binary.BigEndian.PutUint16(pkt[hdr:], uint16(payload.MaxBiasedExp(chunkSlice(c))))
		return w.Fabric.SendBatch(w.ID, [][]byte{pkt})
	}
	sendData := func(c int) error {
		w.SentPackets++
		vals := chunkSlice(c)
		pkt := make([]byte, hdr+4*cfg.Elems)
		pkt[0] = MsgData
		binary.BigEndian.PutUint32(pkt[1:], uint32(c))
		// The quantize + byte-order conversion is the per-element CPU
		// work of §5.2.3.
		if err := payload.QuantizeToWire(pkt[hdr:], vals, scales[c]); err != nil {
			return err
		}
		w.QuantizeOps += uint64(cfg.Elems)
		return w.Fabric.SendBatch(w.ID, [][]byte{pkt})
	}
	canStart := func(c int) bool {
		return c < nChunks && !started[c] && (c-cfg.Pool < 0 || stage[c-cfg.Pool] == stageDone)
	}

	stalls := 0
	var one [1][]byte // receive buffer, reused across the stop-and-wait rounds
	for nDone < nChunks {
		for c := 0; c < nChunks; c++ {
			if canStart(c) {
				if err := sendExp(c); err != nil {
					return nil, err
				}
				started[c] = true
			}
		}
		_, err := w.Fabric.RecvBatch(w.ID, one[:], timeout)
		pkt := one[0]
		if err == transport.ErrTimeout {
			stalls++
			if stalls > retries {
				return nil, fmt.Errorf("switchml: worker %d gave up after %d stalls", w.ID, stalls)
			}
			for c := 0; c < nChunks; c++ {
				if !started[c] {
					continue
				}
				switch stage[c] {
				case stageExp:
					if err := sendExp(c); err != nil {
						return nil, err
					}
				case stageData:
					if err := sendData(c); err != nil {
						return nil, err
					}
				}
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		if len(pkt) < hdr {
			continue
		}
		c := int(binary.BigEndian.Uint32(pkt[1:]))
		if c >= nChunks {
			continue
		}
		switch pkt[0] {
		case MsgScale:
			if !started[c] || stage[c] != stageExp || len(pkt) < hdr+2 {
				continue
			}
			stalls = 0
			scales[c] = int(int16(binary.BigEndian.Uint16(pkt[hdr:])))
			stage[c] = stageData
			if err := sendData(c); err != nil {
				return nil, err
			}
		case MsgResult:
			if !started[c] || stage[c] == stageDone || len(pkt) < hdr+4*cfg.Elems {
				continue
			}
			stalls = 0
			vals := make([]float32, cfg.Elems)
			if err := payload.DequantizeFromWire(vals, pkt[hdr:], scales[c]); err != nil {
				return nil, err
			}
			w.QuantizeOps += uint64(cfg.Elems)
			stage[c] = stageDone
			nDone++
			copy(out[c*cfg.Elems:min(len(vec), (c+1)*cfg.Elems)], vals)
		}
	}
	return out, nil
}
