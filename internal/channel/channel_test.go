package channel

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"xlf/internal/device"
	"xlf/internal/lwc"
)

func TestNegotiatePrefersStrongAffordable(t *testing.T) {
	reg := lwc.NewRegistry()

	// Bulb-class: 8 KB RAM. Expect a 128-bit+ lightweight cipher, never
	// DES-class.
	bulb, err := device.ProfileByName("Philips Hue Lightbulb")
	if err != nil {
		t.Fatal(err)
	}
	info, err := Negotiate(bulb, reg)
	if err != nil {
		t.Fatal(err)
	}
	if info.DefaultKeyBits() < 128 {
		t.Errorf("bulb negotiated %s (%d-bit)", info.Name, info.DefaultKeyBits())
	}

	// Tiny RFID tag: nothing fits.
	tag, err := device.ProfileByName("HID Glass Tag Ultra (RFID)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Negotiate(tag, reg); !errors.Is(err, ErrNoCipher) {
		t.Errorf("tag negotiation err = %v, want ErrNoCipher", err)
	}

	// Phone-class: should land on the strongest key size available.
	phone, err := device.ProfileByName("iPhone 6s Plus")
	if err != nil {
		t.Fatal(err)
	}
	pInfo, err := Negotiate(phone, reg)
	if err != nil {
		t.Fatal(err)
	}
	if pInfo.DefaultKeyBits() < 128 {
		t.Errorf("phone negotiated %s", pInfo.Name)
	}
}

func TestNegotiateNeverPicksDES(t *testing.T) {
	reg := lwc.NewRegistry()
	for _, p := range device.Table1() {
		info, err := Negotiate(p, reg)
		if err != nil {
			continue
		}
		if info.Name == "DES" || info.Name == "DESL" {
			t.Errorf("%s negotiated broken cipher %s", p.Name, info.Name)
		}
	}
}

func pair(t *testing.T) (*Session, *Session) {
	t.Helper()
	reg := lwc.NewRegistry()
	info, _ := reg.Lookup("PRESENT")
	key := bytes.Repeat([]byte{7}, 10)
	a, err := New(info, key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(info, key)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestSealOpenRoundTrip(t *testing.T) {
	a, b := pair(t)
	for _, msg := range []string{"", "x", "temperature=71.5", "a much longer telemetry payload spanning several blocks of the cipher"} {
		sealed, err := a.Seal([]byte(msg))
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Open(sealed)
		if err != nil {
			t.Fatalf("Open(%q): %v", msg, err)
		}
		if string(got) != msg {
			t.Errorf("roundtrip = %q, want %q", got, msg)
		}
	}
}

func TestConfidentialityAndFreshness(t *testing.T) {
	a, _ := pair(t)
	s1, _ := a.Seal([]byte("secret telemetry"))
	s2, _ := a.Seal([]byte("secret telemetry"))
	if bytes.Contains(s1, []byte("secret")) {
		t.Error("plaintext leaked")
	}
	if bytes.Equal(s1[8:], s2[8:]) {
		t.Error("identical ciphertexts for repeated plaintext (nonce reuse)")
	}
}

func TestTamperAndReplayRejected(t *testing.T) {
	a, b := pair(t)
	sealed, _ := a.Seal([]byte("unlock door"))
	// Bit flips anywhere are rejected.
	for i := range sealed {
		mut := append([]byte(nil), sealed...)
		mut[i] ^= 1
		if _, err := b.Open(mut); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	// First delivery fine, replay rejected.
	if _, err := b.Open(sealed); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(sealed); !errors.Is(err, ErrReplay) {
		t.Errorf("replay err = %v, want ErrReplay", err)
	}
	// Short garbage.
	if _, err := b.Open([]byte{1, 2, 3}); !errors.Is(err, ErrTooShort) {
		t.Errorf("short err = %v", err)
	}
}

func TestReorderRejected(t *testing.T) {
	a, b := pair(t)
	s1, _ := a.Seal([]byte("one"))
	s2, _ := a.Seal([]byte("two"))
	if _, err := b.Open(s2); err != nil {
		t.Fatal(err)
	}
	// The earlier nonce is now stale: strict monotonicity.
	if _, err := b.Open(s1); !errors.Is(err, ErrReplay) {
		t.Errorf("stale nonce err = %v, want ErrReplay", err)
	}
}

func TestForDeviceMetersBattery(t *testing.T) {
	reg := lwc.NewRegistry()
	bulb := device.NewSmartBulb("b")
	s, err := ForDevice(bulb, reg, []byte("provisioning-key"))
	if err != nil {
		t.Fatal(err)
	}
	before := bulb.BatteryUJ
	if _, err := s.Seal(bytes.Repeat([]byte{1}, 4096)); err != nil {
		t.Fatal(err)
	}
	if bulb.BatteryUJ >= before {
		t.Error("sealing did not drain the battery")
	}
	// AC-powered camera sessions are unmetered but still work.
	cam := device.NewNetworkCamera("c")
	cs, err := ForDevice(cam, reg, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Seal(bytes.Repeat([]byte{1}, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if _, err := ForDevice(bulb, reg, nil); err == nil {
		t.Error("empty key accepted")
	}
}

func TestBatteryExhaustion(t *testing.T) {
	reg := lwc.NewRegistry()
	bulb := device.NewSmartBulb("b")
	bulb.BatteryUJ = 0.001 // nearly dead
	s, err := ForDevice(bulb, reg, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Seal(bytes.Repeat([]byte{1}, 1<<16)); !errors.Is(err, ErrOutOfEnergy) {
		t.Errorf("err = %v, want ErrOutOfEnergy", err)
	}
}

func TestDeviceGatewayInterop(t *testing.T) {
	// The gateway derives the same session from the same provisioning
	// key by negotiating against the device's profile.
	reg := lwc.NewRegistry()
	bulb := device.NewSmartBulb("b")
	devSide, err := ForDevice(bulb, reg, []byte("pairing-code-1234"))
	if err != nil {
		t.Fatal(err)
	}
	// Gateway side: same negotiation, unmetered.
	info, err := Negotiate(bulb.Profile, reg)
	if err != nil {
		t.Fatal(err)
	}
	gwBulb := device.NewSmartBulb("shadow") // profile twin for key derivation
	gwSide, err := ForDevice(gwBulb, reg, []byte("pairing-code-1234"))
	if err != nil {
		t.Fatal(err)
	}
	if devSide.Algorithm != info.Name || gwSide.Algorithm != info.Name {
		t.Fatalf("algorithms diverge: %s vs %s", devSide.Algorithm, gwSide.Algorithm)
	}
	sealed, err := devSide.Seal([]byte("event:on"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := gwSide.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "event:on" {
		t.Errorf("interop roundtrip = %q", got)
	}
}

func TestSealOpenProperty(t *testing.T) {
	a, b := pair(t)
	f := func(msg []byte) bool {
		sealed, err := a.Seal(msg)
		if err != nil {
			return false
		}
		got, err := b.Open(sealed)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// benchSession returns a sender and receiver over LEA, the cipher every
// device of the protected home negotiates, and a keepalive-sized payload.
func benchSession(b *testing.B) (*Session, *Session, []byte) {
	b.Helper()
	info, _ := lwc.NewRegistry().Lookup("LEA")
	key := bytes.Repeat([]byte{7}, 16)
	tx, err := New(info, key)
	if err != nil {
		b.Fatal(err)
	}
	rx, err := New(info, key)
	if err != nil {
		b.Fatal(err)
	}
	return tx, rx, []byte("keepalive:bulb-7")
}

// BenchmarkSessionSeal measures sealing one keepalive payload, what every
// protected device does on each keepalive.
func BenchmarkSessionSeal(b *testing.B) {
	tx, _, msg := benchSession(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Seal(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionOpen measures the gateway side: verifying and
// decrypting one sealed keepalive. The receiver's replay window is reset
// before each Open so the same message stays acceptable.
func BenchmarkSessionOpen(b *testing.B) {
	tx, rx, msg := benchSession(b)
	sealed, err := tx.Seal(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx.recvHigh = 0
		if _, err := rx.Open(sealed); err != nil {
			b.Fatal(err)
		}
	}
}
