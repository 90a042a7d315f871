package aggservice

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"fpisa/internal/transport"
)

// observerAttempts bounds an exchange's sends: the request datagram and its
// reply are as droppable as any other.
const observerAttempts = 5

// Observer is the client of a switch's out-of-band control plane: it speaks
// through transport.DialObserver, so a probe never disturbs a worker's
// learned return path. It is what fpisa-query, the examples and a tree
// leaf's admission negotiation (ParentControl) all drive a remote switch
// through. Admit and Evict need the switch to enable Config.Dynamic.
type Observer struct {
	// Addr is the switch's UDP address.
	Addr string
	// Timeout is the per-attempt reply deadline (0 means DefaultTimeout).
	Timeout time.Duration
}

// exchange runs one stop-and-wait request about job over a fresh observer
// socket (see stopAndWait); reply's error on a done exchange is the result,
// so a definitive refusal is not retried away.
func (o Observer) exchange(job int, req []byte, reply func(pkt []byte, attempt int) (done bool, err error)) error {
	if job < 0 || job >= MaxJobs {
		return fmt.Errorf("aggservice: job %d outside the 16-bit job-id space", job)
	}
	timeout := o.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	fab, err := transport.DialObserver(o.Addr)
	if err != nil {
		return err
	}
	defer fab.Close()
	_, err = stopAndWait(fab, 0, req, observerAttempts, timeout, make([][]byte, 4), reply)
	if errors.Is(err, errNoReply) {
		return fmt.Errorf("aggservice: no usable reply from %s after %d attempts", o.Addr, observerAttempts)
	}
	return err
}

// errNoReply is stopAndWait's error when every attempt timed out.
var errNoReply = errors.New("aggservice: no reply")

// stopAndWait is the clients' one request loop (an Observer's exchange, a
// TupleClient's batch): it sends req on port and hands every message that
// comes back to reply until reply reports done, resending req whenever
// timeout passes first, attempts sends in all — a message reply does not
// claim costs no attempt. reply gets the zero-based attempt its message
// arrived under (> 0: the peer may have acted on an earlier copy); its error
// on done is the result. sends counts the requests that went out.
func stopAndWait(f transport.Fabric, port int, req []byte, attempts int, timeout time.Duration, bufs [][]byte,
	reply func(msg []byte, attempt int) (done bool, err error)) (sends int, err error) {
	vec := [][]byte{req}
	for attempt := 0; attempt < attempts; attempt++ {
		if err := f.SendBatch(port, vec); err != nil {
			return sends, err
		}
		sends++
		deadline := time.Now().Add(timeout)
		for left := timeout; left > 0; left = time.Until(deadline) {
			n, err := f.RecvBatch(port, bufs, left)
			if err == transport.ErrTimeout {
				break
			}
			if err != nil {
				return sends, err
			}
			for _, msg := range bufs[:n] {
				if done, rerr := reply(msg, attempt); done {
					return sends, rerr
				}
			}
		}
	}
	return sends, errNoReply
}

// refusal decodes the MsgJobAck a switch answers a stats or drain request
// it refuses with, as the sentinel error the status maps to (nil when pkt
// is anything else).
func (o Observer) refusal(pkt []byte, job int) error {
	ack, err := DecodeJobAck(pkt)
	if err != nil || ack.Job != job || ack.Status.Err() == nil {
		return nil
	}
	return fmt.Errorf("switch %s refuses job %d: %w", o.Addr, job, ack.Status.Err())
}

// lifecycle drives one admit or evict round trip. done is the status that
// means success; redone is the refusal that, in answer to a RETRANSMITTED
// request, means an earlier copy already did the work — the ack was lost,
// not the operation, so it is reported as the success it was.
func (o Observer) lifecycle(job int, req []byte, done AckStatus, redone error) (ack JobAck, err error) {
	err = o.exchange(job, req, func(pkt []byte, attempt int) (bool, error) {
		got, derr := DecodeJobAck(pkt)
		if derr != nil || got.Job != job {
			return false, nil
		}
		ack = got
		serr := got.Status.Err()
		if serr == nil {
			return true, nil
		}
		if attempt > 0 && errors.Is(serr, redone) {
			ack.Status = done
			return true, nil
		}
		return true, fmt.Errorf("switch %s refuses job %d: %w", o.Addr, job, serr)
	})
	return ack, err
}

// Admit admits job under spec. The returned ack echoes the incarnation
// epoch the job's workers must stamp (Worker.Epoch) and the weight, profile
// and class the switch actually applied; on a refusal it still carries what
// the switch echoed — for ErrAlreadyAdmitted, the live incarnation.
func (o Observer) Admit(job int, spec JobSpec) (JobAck, error) {
	return o.lifecycle(job, EncodeJobAdmit(JobAdmit{Job: job, JobSpec: spec}), AckAdmitted, ErrAlreadyAdmitted)
}

// Evict starts draining job (see Switch.Evict).
func (o Observer) Evict(job int) (JobAck, error) {
	return o.lifecycle(job, EncodeJobEvict(job), AckEvicting, ErrNotAdmitted)
}

// Stats fetches one job's counters. A job id outside the switch's capacity
// is an error (ErrUnknownJob), not an empty result.
func (o Observer) Stats(job int) (st JobStats, err error) {
	err = o.exchange(job, EncodeStatsReq(job), func(pkt []byte, _ int) (bool, error) {
		if rerr := o.refusal(pkt, job); rerr != nil {
			return true, rerr
		}
		j, got, derr := DecodeStatsReply(pkt)
		if derr != nil || j != job {
			return false, nil
		}
		st = got
		return true, nil
	})
	return st, err
}

// drainNonce seeds Drain's replay nonces; mixing the process start time
// keeps a restarted observer from replaying a predecessor's cache.
var drainNonce atomic.Uint32

func init() {
	drainNonce.Store(uint32(time.Now().UnixNano()))
}

// Drain harvests one kind of an analytics job's state (read-and-reset on
// the switch; every resend carries the same nonce, so a lost reply is
// replayed instead of costing the interval). flags is 0 or
// DrainFlagResetPrune.
func (o Observer) Drain(job int, kind DrainKind, flags uint8) (entries []DrainEntry, err error) {
	req := EncodeDrain(job, kind, flags, drainNonce.Add(1))
	err = o.exchange(job, req, func(pkt []byte, _ int) (bool, error) {
		if rerr := o.refusal(pkt, job); rerr != nil {
			return true, rerr
		}
		j, k, got, derr := DecodeDrainReply(pkt)
		if derr != nil || j != job || k != kind {
			return false, nil
		}
		entries = got
		return true, nil
	})
	return entries, err
}
