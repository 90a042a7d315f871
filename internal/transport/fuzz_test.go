package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// refFrame is the tests' own frame reader, independent of decodeFrame: it
// walks [id(1) count(2) {len(2) pkt}·count] with a bytes.Reader. truncated
// reports a datagram that ends inside its header or a packet; ok a whole
// frame with no byte left over.
func refFrame(dgram []byte) (id byte, pkts []string, truncated, ok bool) {
	r := bytes.NewReader(dgram)
	var hdr struct {
		ID    byte
		Count uint16
	}
	if binary.Read(r, binary.BigEndian, &hdr) != nil {
		return 0, nil, true, false
	}
	for i := 0; i < int(hdr.Count); i++ {
		var l uint16
		if binary.Read(r, binary.BigEndian, &l) != nil {
			return 0, nil, true, false
		}
		p := make([]byte, l)
		if _, err := io.ReadFull(r, p); err != nil {
			return 0, nil, true, false
		}
		pkts = append(pkts, string(p))
	}
	return hdr.ID, pkts, false, r.Len() == 0
}

// FuzzDecodeFrame holds the frame codec to refFrame: it must never panic,
// accept exactly the datagrams refFrame reads whole, with the same id and
// packets, fail with ErrTruncated exactly where refFrame runs out of bytes,
// and re-encode every accepted frame byte for byte.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(appendFrame(nil, 3, [][]byte{{1, 2}, {}, {0xF2, 9, 9}}))
	f.Add(appendFrame(nil, 0, nil))
	f.Add(appendFrame(nil, observerID, [][]byte{bytes.Repeat([]byte{7}, 600)}))
	f.Add([]byte{1, 0xff, 0xff})                            // count overstates packets
	f.Add([]byte{1, 0, 1, 0, 5, 1})                         // length exceeds frame
	f.Add(appendFrame(nil, 9, [][]byte{{1}})[:4])           // truncated
	f.Add(append(appendFrame(nil, 9, [][]byte{{1}}), 0xaa)) // trailing byte

	f.Fuzz(func(t *testing.T, frame []byte) {
		id, pkts, err := decodeFrame(frame, nil)
		rid, rpkts, truncated, ok := refFrame(frame)
		if (err == nil) != ok || errors.Is(err, ErrTruncated) != truncated {
			t.Fatalf("decodeFrame(%x) = %v; reference reads truncated=%v whole=%v", frame, err, truncated, ok)
		}
		if err != nil {
			return
		}
		var got []string
		for _, p := range pkts {
			got = append(got, string(p))
		}
		if id != rid || !reflect.DeepEqual(got, rpkts) {
			t.Fatalf("decoded id %d %q, reference %d %q", id, got, rid, rpkts)
		}
		if re := appendFrame(nil, id, pkts); !bytes.Equal(re, frame) {
			t.Fatalf("re-encode mismatch:\n got %v\nwant %v", re, frame)
		}
	})
}
