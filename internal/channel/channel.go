// Package channel implements XLF's device-layer lightweight encryption
// function (§IV-A2): an authenticated-encryption session between a
// constrained device and the XLF Core on the gateway, built from Table III
// primitives (CTR mode + truncated CMAC over the same cipher). The cipher
// is negotiated per device by the cost model — the strongest algorithm the
// device's RAM and cycle budget affords — and every sealed byte is charged
// to the device's battery.
package channel

import (
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"

	"xlf/internal/device"
	"xlf/internal/lwc"
)

// Errors returned by Open.
var (
	ErrTooShort    = errors.New("channel: message too short")
	ErrBadTag      = errors.New("channel: integrity tag mismatch")
	ErrReplay      = errors.New("channel: replayed or reordered nonce")
	ErrNoCipher    = errors.New("channel: no affordable cipher for device")
	ErrOutOfEnergy = errors.New("channel: device battery exhausted")
)

// Negotiate picks the strongest affordable cipher for a device profile:
// among the algorithms whose working RAM fits, it prefers the largest
// effective key, breaking ties by lower cycle cost. DES-class algorithms
// (<=64-bit keys) are never selected — they appear in Table III as
// baselines, not recommendations.
func Negotiate(p device.Profile, reg *lwc.Registry) (lwc.Info, error) {
	var best lwc.Info
	found := false
	for _, info := range reg.ByCost() {
		if !device.CostModel(p, info.CyclesPerByte, info.RAMBytes).Fits {
			continue
		}
		if info.DefaultKeyBits() <= 64 {
			continue // DES/DESL: broken key sizes
		}
		if info.BlockSize < 64 {
			continue // 16-bit blocks cannot carry the CTR+CMAC framing
		}
		if !found ||
			info.DefaultKeyBits() > best.DefaultKeyBits() ||
			(info.DefaultKeyBits() == best.DefaultKeyBits() && info.CyclesPerByte < best.CyclesPerByte) {
			best = info
			found = true
		}
	}
	if !found {
		return lwc.Info{}, ErrNoCipher
	}
	return best, nil
}

// Session is one direction of an authenticated-encryption channel. Both
// ends construct it from the same key material; the sender's nonce counter
// and the receiver's replay window advance independently. A Session is not
// safe for concurrent use.
type Session struct {
	// Algorithm names the negotiated Table III cipher.
	Algorithm string
	blk       cipher.Block
	tagSize   int

	// mac is built on the first tag and reused for every later one.
	mac hash.Hash
	// ctr, ks and tagBuf are the CTR counter block, keystream block and
	// MAC output; they live here because passing them through the
	// cipher.Block and hash.Hash interfaces would move stack arrays to
	// the heap on every call.
	ctr, ks, tagBuf []byte

	sendNonce uint64
	recvHigh  uint64

	// cost charges the owning device per processed KB; nil = free
	// (gateway side).
	cost *deviceMeter
}

type deviceMeter struct {
	dev  *device.Device
	cost device.CipherCost
}

// New creates a session over a negotiated cipher and key. The key length
// must match the algorithm's default key size.
func New(info lwc.Info, key []byte) (*Session, error) {
	blk, err := info.New(key)
	if err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	if blk.BlockSize() < 8 {
		return nil, fmt.Errorf("channel: %s block too small for CTR+CMAC framing", info.Name)
	}
	bs := blk.BlockSize()
	scratch := make([]byte, 3*bs)
	return &Session{
		Algorithm: info.Name, blk: blk, tagSize: 8,
		ctr: scratch[:bs:bs], ks: scratch[bs : 2*bs : 2*bs], tagBuf: scratch[2*bs : 2*bs : 3*bs],
	}, nil
}

// ForProfile negotiates a cipher for a hardware profile and derives the
// session key from the provisioning key with the lightweight hash (a KDF
// stand-in). The session is unmetered — this is what the gateway/core side
// uses to build the peer of a device session.
func ForProfile(p device.Profile, reg *lwc.Registry, key []byte) (*Session, error) {
	info, err := Negotiate(p, reg)
	if err != nil {
		return nil, err
	}
	if len(key) == 0 {
		return nil, errors.New("channel: empty key")
	}
	want := info.DefaultKeyBits() / 8
	mat := make([]byte, 0, want)
	ctr := uint64(0)
	for len(mat) < want {
		h := lwc.NewDMPresent()
		var c [8]byte
		binary.BigEndian.PutUint64(c[:], ctr)
		h.Write(c[:])
		h.Write(key)
		mat = h.Sum(mat)
		ctr++
	}
	return New(info, mat[:want])
}

// ForDevice negotiates a cipher for the device's profile, creates the
// session, and meters every sealed/opened byte against its battery.
func ForDevice(d *device.Device, reg *lwc.Registry, key []byte) (*Session, error) {
	s, err := ForProfile(d.Profile, reg, key)
	if err != nil {
		return nil, err
	}
	info, err := Negotiate(d.Profile, reg)
	if err != nil {
		return nil, err
	}
	s.cost = &deviceMeter{
		dev:  d,
		cost: device.CostModel(d.Profile, info.CyclesPerByte, info.RAMBytes),
	}
	return s, nil
}

func (s *Session) charge(n int) error {
	if s.cost == nil {
		return nil
	}
	if !s.cost.dev.SpendCrypto(s.cost.cost, n) {
		return ErrOutOfEnergy
	}
	return nil
}

// ctrXOR writes src XOR the CTR keystream for a nonce to dst, which has
// src's length.
func (s *Session) ctrXOR(nonce uint64, dst, src []byte) {
	bs := len(s.ctr)
	for i := 0; i < len(src); i += bs {
		binary.BigEndian.PutUint64(s.ctr[bs-8:], nonce+uint64(i/bs))
		s.blk.Encrypt(s.ks, s.ctr)
		for j := 0; j < bs && i+j < len(src); j++ {
			dst[i+j] = src[i+j] ^ s.ks[j]
		}
	}
}

// tag returns the truncated CMAC of a framed message, nonce || ct. The
// result aliases the session's tag buffer, valid until the next tag.
func (s *Session) tag(framed []byte) ([]byte, error) {
	if s.mac == nil {
		m, err := lwc.NewCMAC(s.blk)
		if err != nil {
			return nil, err
		}
		s.mac = m
	}
	s.mac.Reset()
	s.mac.Write(framed)
	s.tagBuf = s.mac.Sum(s.tagBuf[:0])
	return s.tagBuf[:s.tagSize], nil
}

// Seal encrypts and authenticates a message: nonce || ct || tag. The
// device battery is charged for the processed bytes.
func (s *Session) Seal(plaintext []byte) ([]byte, error) {
	if err := s.charge(len(plaintext) + s.tagSize); err != nil {
		return nil, err
	}
	s.sendNonce++
	n := s.sendNonce
	out := make([]byte, 8+len(plaintext)+s.tagSize)
	binary.BigEndian.PutUint64(out, n)
	framed := out[:8+len(plaintext)]
	s.ctrXOR(n<<20, framed[8:], plaintext)
	t, err := s.tag(framed)
	if err != nil {
		return nil, err
	}
	copy(out[len(framed):], t)
	return out, nil
}

// Open verifies and decrypts, enforcing strictly increasing nonces (replay
// protection — one of the §II-B channel requirements).
func (s *Session) Open(msg []byte) ([]byte, error) {
	if len(msg) < 8+s.tagSize {
		return nil, ErrTooShort
	}
	n := binary.BigEndian.Uint64(msg[:8])
	framed := msg[:len(msg)-s.tagSize]
	gotTag := msg[len(framed):]
	want, err := s.tag(framed)
	if err != nil {
		return nil, err
	}
	if !constEq(gotTag, want) {
		return nil, ErrBadTag
	}
	if n <= s.recvHigh {
		return nil, ErrReplay
	}
	ct := framed[8:]
	if err := s.charge(len(ct) + s.tagSize); err != nil {
		return nil, err
	}
	s.recvHigh = n
	out := make([]byte, len(ct))
	s.ctrXOR(n<<20, out, ct)
	return out, nil
}

// constEq compares tags in constant time via crypto/subtle; the
// earlier hand-rolled XOR loop is gone so the constant-time property is
// the standard library's, not ours to re-verify.
func constEq(a, b []byte) bool {
	return subtle.ConstantTimeCompare(a, b) == 1
}
