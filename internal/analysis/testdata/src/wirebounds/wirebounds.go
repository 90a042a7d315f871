// Package wirebounds is fpisa-vet analyzer testdata: Decode*/decode*
// bounds-guard ordering and ErrTruncated wrapping.
package wirebounds

import (
	"errors"
	"fmt"
)

// ErrTruncated mirrors the protocol packages' truncation sentinel.
var ErrTruncated = errors.New("truncated")

// DecodeGood guards before indexing and wraps the sentinel. OK.
func DecodeGood(pkt []byte) (byte, error) {
	if len(pkt) < 2 {
		return 0, fmt.Errorf("short packet: %w", ErrTruncated)
	}
	return pkt[1], nil
}

// DecodeSliceGood guards before slicing. OK.
func DecodeSliceGood(pkt []byte) ([]byte, error) {
	if len(pkt) < 4 {
		return nil, fmt.Errorf("short packet: %w", ErrTruncated)
	}
	return pkt[2:4], nil
}

// DecodeDelegating never touches bytes itself. OK.
func DecodeDelegating(pkt []byte) (byte, error) {
	return DecodeGood(pkt)
}

// decodeGood is an unexported decoder — a switch's ingress parser — that
// guards and returns the sentinel bare. OK.
func decodeGood(pkt []byte) (byte, error) {
	if len(pkt) < 2 {
		return 0, ErrTruncated
	}
	return pkt[1], nil
}

// decodeLate is an unexported decoder held to the same rule: it indexes
// before its len() guard.
func decodeLate(pkt []byte) (byte, error) {
	kind := pkt[4] // want `decodeLate indexes its \[\]byte input before any len\(\) guard`
	if len(pkt) < 10 {
		return 0, ErrTruncated
	}
	return kind, nil
}

// DecodeAfterDelegating indexes only after handing its input to another
// decoder, which guards for it. OK.
func DecodeAfterDelegating(pkt []byte) (byte, error) {
	if _, err := decodeGood(pkt); err != nil {
		return 0, err
	}
	return pkt[0], nil
}

// DecodeBeforeDelegating indexes first and delegates too late.
func DecodeBeforeDelegating(pkt []byte) (byte, error) { // want `DecodeBeforeDelegating indexes its \[\]byte input but never returns an error wrapping ErrTruncated`
	b := pkt[0] // want `DecodeBeforeDelegating indexes its \[\]byte input before any len\(\) guard`
	if _, err := notADecoder2(pkt); err != nil {
		return 0, err
	}
	return b, nil
}

// notADecoder2 guards, but is not a decoder by name: handing it the input
// delegates nothing.
func notADecoder2(pkt []byte) (byte, error) {
	if len(pkt) < 1 {
		return 0, ErrTruncated
	}
	return pkt[0], nil
}

// notADecoder is unguarded but not Decode*-named; out of scope. OK.
func notADecoder(pkt []byte) byte {
	return pkt[0]
}

// DecodeUnguarded indexes with no guard at all.
func DecodeUnguarded(pkt []byte) byte { // want `DecodeUnguarded indexes its \[\]byte input but never returns an error wrapping ErrTruncated`
	return pkt[0] // want `DecodeUnguarded indexes its \[\]byte input before any len\(\) guard`
}

// DecodeLate guards only after the first index.
func DecodeLate(pkt []byte) (byte, error) {
	b := pkt[0] // want `DecodeLate indexes its \[\]byte input before any len\(\) guard`
	if len(pkt) < 2 {
		return 0, fmt.Errorf("short packet: %w", ErrTruncated)
	}
	return b, nil
}

// DecodeNoSentinel guards, but its short path returns an anonymous error
// callers cannot match.
func DecodeNoSentinel(pkt []byte) (byte, error) { // want `DecodeNoSentinel indexes its \[\]byte input but never returns an error wrapping ErrTruncated`
	if len(pkt) < 2 {
		return 0, errors.New("short packet")
	}
	return pkt[1], nil
}
