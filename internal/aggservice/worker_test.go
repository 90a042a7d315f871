package aggservice

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/transport"
)

// Step-exact tests of Worker.Reduce. Reduce strictly alternates send and
// receive in the caller's goroutine, so a fabric that replays a script of
// RecvBatch outcomes and records every send vector pins the protocol one
// step at a time: what goes out after each received vector, in which
// vectors, and which counters moved.

// errScriptEnd is what scriptFabric.RecvBatch returns once its script is
// spent; a Reduce that is still receiving fails with it.
var errScriptEnd = errors.New("scriptFabric: script exhausted")

// recvStep is one scripted RecvBatch outcome: a delivery vector, an error,
// or (block) a receive that sits out the caller's timeout.
type recvStep struct {
	msgs  [][]byte
	err   error
	block bool
}

func deliver(msgs ...[]byte) recvStep { return recvStep{msgs: msgs} }

var timeoutStep = recvStep{err: transport.ErrTimeout}

// scriptFabric is the scripted transport.Fabric. sends[i] holds the send
// vectors (as ADD chunk ids) flushed after i RecvBatch calls had returned,
// so sends[0] is the initial window.
type scriptFabric struct {
	t      *testing.T
	script []recvStep
	sends  [][][]int
	// failSend makes the failSend-th SendBatch call (1-based) and every
	// later one return errSendFailed.
	failSend, nSends int
}

var errSendFailed = errors.New("scriptFabric: send failed")

func newScriptFabric(t *testing.T, script ...recvStep) *scriptFabric {
	return &scriptFabric{t: t, script: script, sends: make([][][]int, 1)}
}

func (f *scriptFabric) SendBatch(_ int, pkts [][]byte) error {
	if f.nSends++; f.failSend > 0 && f.nSends >= f.failSend {
		return errSendFailed
	}
	chunks := make([]int, len(pkts))
	for i, p := range pkts {
		if typ, _, err := decodeHeader(p); err != nil || typ != MsgAdd {
			f.t.Fatalf("worker sent a non-ADD % x", p)
		}
		chunks[i] = int(binary.BigEndian.Uint32(p[4:]))
	}
	last := len(f.sends) - 1
	f.sends[last] = append(f.sends[last], chunks)
	return nil
}

func (f *scriptFabric) RecvBatch(_ int, bufs [][]byte, timeout time.Duration) (int, error) {
	step := recvStep{err: errScriptEnd}
	if n := len(f.sends) - 1; n < len(f.script) {
		step = f.script[n]
	}
	if step.block {
		time.Sleep(timeout)
		step.err = transport.ErrTimeout
	}
	f.sends = append(f.sends, nil)
	if step.err != nil {
		return 0, step.err
	}
	for i, m := range step.msgs {
		bufs[i] = append(bufs[i][:0], m...)
	}
	return len(step.msgs), nil
}

func (f *scriptFabric) Close() error { return nil }

// recvs is how many RecvBatch calls the worker made.
func (f *scriptFabric) recvs() int { return len(f.sends) - 1 }

// wantSends asserts the send vectors flushed after the i-th RecvBatch.
func (f *scriptFabric) wantSends(i int, want ...[]int) {
	f.t.Helper()
	var got [][]int
	if i < len(f.sends) {
		got = f.sends[i]
	}
	if !reflect.DeepEqual(got, want) {
		f.t.Errorf("send vectors after receive %d: %v, want %v", i, got, want)
	}
}

const scriptModules = 2

// scriptWorker builds a job-0 worker over f for a vector of nChunks
// two-module chunks, with v[i] = i+1.
func scriptWorker(f *scriptFabric, pool, nChunks int) (*Worker, []float32) {
	cfg := Config{Workers: 1, Pool: pool, Modules: scriptModules, Mode: core.ModeApprox}
	w := NewWorker(0, f, cfg)
	w.Timeout = time.Second
	vec := make([]float32, nChunks*scriptModules)
	for i := range vec {
		vec[i] = float32(i + 1)
	}
	return w, vec
}

// chunkSum is the aggregate the scripted switch reports for chunk c.
func chunkSum(c int) []float32 { return []float32{float32(100 + c), float32(-c)} }

func result(c int) []byte {
	return encodeResult(0, uint32(c), core.NumericProfile{}, chunkSum(c), false)
}

// resultRun is a RESULT RUN covering chunks start..start+count-1.
func resultRun(start, count int) []byte {
	items := make([][]byte, count)
	for i := range items {
		items[i] = result(start + i)
	}
	return encodeResultRun(0, uint32(start), items)
}

func notice(status AckStatus, epoch uint8) []byte { return jobNotice(0, status, epoch, 1) }

// TestReduceInitialWindow: before receiving anything the worker sends
// exactly chunks [0, Pool), as one vector — and an error exit still leaves
// the counters current.
func TestReduceInitialWindow(t *testing.T) {
	f := newScriptFabric(t)
	w, vec := scriptWorker(f, 8, 20)
	if _, err := w.Reduce(vec); !errors.Is(err, errScriptEnd) {
		t.Fatalf("Reduce error %v, want the script's end", err)
	}
	f.wantSends(0, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if w.SentPackets != 8 || w.SentDatagrams != 1 || w.LastBatch != 8 {
		t.Errorf("after the error exit: %d packets, %d vectors, largest %d; want 8, 1, 8",
			w.SentPackets, w.SentDatagrams, w.LastBatch)
	}

	// A vector shorter than the window sends all of it and no more.
	f = newScriptFabric(t)
	w, vec = scriptWorker(f, 8, 3)
	if _, err := w.Reduce(vec[:5]); !errors.Is(err, errScriptEnd) { // 3 chunks, the last one half full
		t.Fatalf("Reduce error %v, want the script's end", err)
	}
	f.wantSends(0, []int{0, 1, 2})
	if w.SentDatagrams != 1 || w.LastBatch != 3 {
		t.Errorf("short vector: %d vectors, largest %d; want 1, 3", w.SentDatagrams, w.LastBatch)
	}
}

// TestReduceResultOpensSlot: a RESULT for chunk c puts ADD c+Pool into the
// next flush, a RESULT RUN of k chunks puts k ADDs into ONE flush, repeats
// and foreign traffic open nothing, and the sums land in the output.
func TestReduceResultOpensSlot(t *testing.T) {
	other := encodeResult(1, 3, core.NumericProfile{}, chunkSum(3), false) // another job's RESULT
	f := newScriptFabric(t,
		deliver(result(2)),
		deliver(result(2), other, resultRun(0, 2), result(3), []byte{0xF2}),
		deliver(resultRun(4, 4)),
		deliver(resultRun(8, 3), result(11)),
	)
	w, vec := scriptWorker(f, 4, 12)
	vec = vec[:len(vec)-1] // the tail chunk carries one value
	out, err := w.Reduce(vec)
	if err != nil {
		t.Fatal(err)
	}
	f.wantSends(0, []int{0, 1, 2, 3})
	f.wantSends(1, []int{6})
	f.wantSends(2, []int{4, 5, 7})
	f.wantSends(3, []int{8, 9, 10, 11})
	f.wantSends(4)
	if f.recvs() != 4 {
		t.Errorf("%d receives, want 4", f.recvs())
	}
	want := make([]float32, 0, 24)
	for c := 0; c < 12; c++ {
		want = append(want, chunkSum(c)...)
	}
	if !reflect.DeepEqual(out, want[:23]) {
		t.Errorf("output %v, want %v", out, want[:23])
	}
	if w.SentPackets != 12 || w.SentDatagrams != 4 || w.LastBatch != 4 {
		t.Errorf("%d packets in %d vectors, largest %d; want 12, 4, 4", w.SentPackets, w.SentDatagrams, w.LastBatch)
	}
}

// TestReduceReplyIsOneVector: the chunks one received vector frees leave in
// one send vector, sent when that vector ends — whether one RESULT RUN,
// several runs or a string of single RESULTs freed them.
func TestReduceReplyIsOneVector(t *testing.T) {
	f := newScriptFabric(t,
		deliver(resultRun(0, 8)),
		deliver(resultRun(8, 3), resultRun(11, 3)),
		deliver(resultRun(14, 4), resultRun(18, 4)),
		deliver(result(22), result(23), result(24), result(25), result(26), result(27), result(28), result(29)),
	)
	w, vec := scriptWorker(f, 8, 40)
	if _, err := w.Reduce(vec); !errors.Is(err, errScriptEnd) {
		t.Fatalf("Reduce error %v, want the script's end", err)
	}
	f.wantSends(0, []int{0, 1, 2, 3, 4, 5, 6, 7})
	f.wantSends(1, []int{8, 9, 10, 11, 12, 13, 14, 15})
	f.wantSends(2, []int{16, 17, 18, 19, 20, 21})
	f.wantSends(3, []int{22, 23, 24, 25, 26, 27, 28, 29})
	f.wantSends(4, []int{30, 31, 32, 33, 34, 35, 36, 37})
	if w.SentPackets != 38 || w.SentDatagrams != 5 || w.LastBatch != 8 {
		t.Errorf("%d packets in %d vectors, largest %d; want 38, 5, 8", w.SentPackets, w.SentDatagrams, w.LastBatch)
	}
}

// TestReduceTimeoutRetransmits: a stall round resends exactly the
// sent-and-not-done chunks, as one vector.
func TestReduceTimeoutRetransmits(t *testing.T) {
	f := newScriptFabric(t,
		deliver(result(1)),
		timeoutStep,
		timeoutStep,
		timeoutStep,
		deliver(resultRun(0, 1), resultRun(2, 2)),
	)
	w, vec := scriptWorker(f, 4, 12)
	if _, err := w.Reduce(vec); !errors.Is(err, errScriptEnd) {
		t.Fatalf("Reduce error %v, want the script's end", err)
	}
	f.wantSends(1, []int{5})
	f.wantSends(2, []int{0, 2, 3, 5})
	f.wantSends(3, []int{0, 2, 3, 5})
	f.wantSends(4, []int{0, 2, 3, 5})
	// Chunks 0, 2 and 3 complete in one vector: their freed slots share
	// the vector's closing flush.
	f.wantSends(5, []int{4, 6, 7})
	if w.SentPackets != 4+1+3*4+3 || w.SentDatagrams != 6 || w.LastBatch != 4 {
		t.Errorf("%d ADDs in %d vectors, largest %d; want %d, 6, 4", w.SentPackets, w.SentDatagrams, w.LastBatch, 4+1+3*4+3)
	}
}

// TestReduceRetryBudget: Retries bounds CONSECUTIVE stall rounds. Zero is
// the default budget; two allows two retransmit rounds and fails on the
// third timeout; progress in between refills the budget.
func TestReduceRetryBudget(t *testing.T) {
	stalls := make([]recvStep, DefaultRetries+1)
	for i := range stalls {
		stalls[i] = timeoutStep
	}
	f := newScriptFabric(t, stalls...)
	w, vec := scriptWorker(f, 4, 12)
	w.Retries = 0
	_, err := w.Reduce(vec)
	if want := fmt.Sprintf("gave up after %d stalls", DefaultRetries+1); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Retries 0: error %v, want a give-up after %d stalls", err, DefaultRetries+1)
	}
	if f.recvs() != DefaultRetries+1 || w.SentPackets != uint64(4+4*DefaultRetries) || w.SentDatagrams != uint64(1+DefaultRetries) {
		t.Errorf("Retries 0: %d receives, %d packets in %d vectors; want %d, %d, %d",
			f.recvs(), w.SentPackets, w.SentDatagrams, DefaultRetries+1, 4+4*DefaultRetries, 1+DefaultRetries)
	}

	f = newScriptFabric(t, timeoutStep, timeoutStep, deliver(result(0)), timeoutStep, timeoutStep, timeoutStep)
	w, vec = scriptWorker(f, 4, 12)
	w.Retries = 2
	_, err = w.Reduce(vec)
	if err == nil || !strings.Contains(err.Error(), "gave up after 3 stalls") {
		t.Fatalf("Retries 2: error %v, want a give-up after 3 stalls", err)
	}
	f.wantSends(1, []int{0, 1, 2, 3})
	f.wantSends(2, []int{0, 1, 2, 3})
	f.wantSends(3, []int{4})
	f.wantSends(4, []int{1, 2, 3, 4})
	f.wantSends(5, []int{1, 2, 3, 4})
	f.wantSends(6)
	if f.recvs() != 6 {
		t.Errorf("Retries 2: %d receives, want 6", f.recvs())
	}
	if w.SentPackets != 4+4+4+1+4+4 || w.SentDatagrams != 6 || w.LastBatch != 4 {
		t.Errorf("Retries 2: %d packets in %d vectors, largest %d; want 21, 6, 4", w.SentPackets, w.SentDatagrams, w.LastBatch)
	}
}

// TestZeroRetriesRetransmit: a hand-built Worker's zero Retries is the
// default budget, as its zero Timeout is — a stall retransmits the window
// instead of ending the reduce.
func TestZeroRetriesRetransmit(t *testing.T) {
	f := newScriptFabric(t, timeoutStep, deliver(resultRun(0, 2)))
	cfg := Config{Workers: 1, Pool: 2, Modules: scriptModules, Mode: core.ModeApprox}
	w := &Worker{Fabric: f, Cfg: cfg, Timeout: time.Second}
	out, err := w.Reduce([]float32{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("a zero-Retries worker gave up on its first stall: %v", err)
	}
	f.wantSends(0, []int{0, 1})
	f.wantSends(1, []int{0, 1})
	if want := append(chunkSum(0), chunkSum(1)...); !reflect.DeepEqual(out, want) {
		t.Errorf("output %v, want %v", out, want)
	}
}

// TestReduceBackpressureNotice: AckBackpressure is counted per notice,
// retransmits nothing and refills the stall budget; the stall rounds
// around it each resend the window as one vector.
func TestReduceBackpressureNotice(t *testing.T) {
	f := newScriptFabric(t,
		timeoutStep, // stall 1 of 1
		deliver(notice(AckBackpressure, 0), notice(AckBackpressure, 0), notice(AckBackpressure, 9)),
		timeoutStep, // stall 1 of 1 again: the notices refilled the budget
		timeoutStep,
	)
	w, vec := scriptWorker(f, 8, 16)
	w.Retries = 1
	_, err := w.Reduce(vec)
	if err == nil || !strings.Contains(err.Error(), "gave up after 2 stalls") {
		t.Fatalf("error %v, want a give-up after 2 stalls", err)
	}
	f.wantSends(1, []int{0, 1, 2, 3, 4, 5, 6, 7})
	f.wantSends(2) // nothing resent
	f.wantSends(3, []int{0, 1, 2, 3, 4, 5, 6, 7})
	f.wantSends(4)
	if w.BackpressureAcks != 2 || w.SentDatagrams != 3 {
		t.Errorf("%d backpressure acks, %d vectors; want 2 (the epoch-9 notice is not ours), 3",
			w.BackpressureAcks, w.SentDatagrams)
	}
}

// TestReduceEvictionNotice: an own-epoch AckEvicted or AckDraining ends the
// reduce with ErrJobEvicted at once — nothing queued by the same vector is
// sent — while another incarnation's notice is ignored.
func TestReduceEvictionNotice(t *testing.T) {
	for _, status := range []AckStatus{AckEvicted, AckDraining} {
		f := newScriptFabric(t,
			deliver(notice(status, 1), result(0)),
			deliver(result(1), notice(status, 0), result(2)),
		)
		w, vec := scriptWorker(f, 4, 12)
		if _, err := w.Reduce(vec); !errors.Is(err, ErrJobEvicted) {
			t.Fatalf("status %d: error %v, want ErrJobEvicted", status, err)
		}
		f.wantSends(1, []int{4})
		f.wantSends(2)
		if f.recvs() != 2 || w.SentPackets != 5 {
			t.Errorf("status %d: %d receives, %d packets; want 2, 5", status, f.recvs(), w.SentPackets)
		}
	}
}

// TestReduceSendErrorReturnsAtOnce: a SendBatch error ends the reduce
// without another receive. (The two-goroutine Reduce left its receiver to
// sit out a full receive timeout first.)
func TestReduceSendErrorReturnsAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		failSend                int
		script                  []recvStep
		recvs, packets, vectors int
	}{
		{"initial window", 1, []recvStep{{block: true}}, 0, 4, 1},
		{"freed slot", 2, []recvStep{deliver(result(0), result(1)), {block: true}}, 1, 6, 2},
		{"retransmit", 2, []recvStep{timeoutStep, {block: true}}, 1, 8, 2},
	} {
		f := newScriptFabric(t, tc.script...)
		f.failSend = tc.failSend
		w, vec := scriptWorker(f, 4, 12)
		start := time.Now()
		_, err := w.Reduce(vec)
		if took := time.Since(start); took > w.Timeout/2 {
			t.Errorf("%s: Reduce took %v with a failing fabric; the receive timeout is %v", tc.name, took, w.Timeout)
		}
		if !errors.Is(err, errSendFailed) {
			t.Errorf("%s: error %v, want the fabric's send error", tc.name, err)
		}
		if f.recvs() != tc.recvs {
			t.Errorf("%s: %d receives after the send error, want %d", tc.name, f.recvs(), tc.recvs)
		}
		if w.SentPackets != uint64(tc.packets) {
			t.Errorf("%s: SentPackets %d, want %d (the failed vector counts as sent)", tc.name, w.SentPackets, tc.packets)
		}
		if w.SentDatagrams != uint64(tc.vectors) || f.nSends != tc.vectors {
			t.Errorf("%s: %d vectors counted, %d SendBatch calls; want %d (none after the failure)",
				tc.name, w.SentDatagrams, f.nSends, tc.vectors)
		}
	}
}
