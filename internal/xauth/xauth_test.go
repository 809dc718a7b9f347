package xauth

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func testAuthority(t *testing.T) *Authority {
	t.Helper()
	a, err := NewAuthority([]byte("test-signing-key"), []User{
		{Name: "alice", Password: "alice-pw", Priv: Advanced, MFASecret: "alice-mfa"},
		{Name: "bob", Password: "bob-pw", Priv: Basic},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestTokenIssueVerify(t *testing.T) {
	s, err := NewSigner([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	now := 10 * time.Minute
	tok := s.Issue("alice", "bulb-1", Advanced, true, now, time.Hour)
	if err := s.Verify(tok, now+time.Minute, "bulb-1"); err != nil {
		t.Errorf("valid token rejected: %v", err)
	}
	if err := s.Verify(tok, now+2*time.Hour, "bulb-1"); !errors.Is(err, ErrExpired) {
		t.Errorf("expired token: err = %v, want ErrExpired", err)
	}
	if err := s.Verify(tok, now, "cam-1"); !errors.Is(err, ErrWrongDevice) {
		t.Errorf("wrong device: err = %v, want ErrWrongDevice", err)
	}
	if err := s.Verify(tok, now-time.Hour, "bulb-1"); !errors.Is(err, ErrNotYetValid) {
		t.Errorf("future token: err = %v, want ErrNotYetValid", err)
	}
}

func TestTokenTamperDetected(t *testing.T) {
	s, _ := NewSigner([]byte("k"))
	tok := s.Issue("bob", "", Basic, false, 0, time.Hour)
	tok.Priv = Advanced // privilege escalation attempt
	if err := s.Verify(tok, time.Minute, ""); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered token: err = %v, want ErrBadSignature", err)
	}
	// A different key must also fail.
	s2, _ := NewSigner([]byte("other"))
	good := s.Issue("bob", "", Basic, false, 0, time.Hour)
	if err := s2.Verify(good, time.Minute, ""); !errors.Is(err, ErrBadSignature) {
		t.Errorf("cross-key token: err = %v, want ErrBadSignature", err)
	}
}

// TestRedactHidesSignature: the sanctioned display form must never
// contain the full MAC (that is the point of the secretleak sanitizer).
func TestRedactHidesSignature(t *testing.T) {
	s, _ := NewSigner([]byte("k"))
	tok := s.Issue("alice", "bulb-1", Advanced, true, 0, time.Hour)
	red := Redact(tok)
	if !strings.Contains(red, "alice") {
		t.Errorf("Redact(%v) = %q, want the subject visible", tok, red)
	}
	if strings.Contains(red, string(tok.Sig)) || strings.Contains(red, Encode(tok)) {
		t.Errorf("Redact leaked raw token material: %q", red)
	}
	if red := Redact(Token{Subject: "x", Priv: Basic}); red != "token(x/basic sig=unsigned)" {
		t.Errorf("unsigned form = %q", red)
	}
}

func TestTokenEncodeDecodeRoundTrip(t *testing.T) {
	s, _ := NewSigner([]byte("k"))
	f := func(sub string, dev string, adv bool) bool {
		priv := Basic
		if adv {
			priv = Advanced
		}
		tok := s.Issue(sub, dev, priv, adv, time.Minute, time.Hour)
		dec, err := Decode(Encode(tok))
		if err != nil {
			return false
		}
		return dec.Subject == sub && dec.Device == dev && dec.Priv == priv &&
			s.Verify(dec, 2*time.Minute, dev) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode("!!!not-base64!!!"); err == nil {
		t.Error("Decode accepted garbage")
	}
	if _, err := Decode("aGVsbG8"); err == nil { // "hello", not JSON
		t.Error("Decode accepted non-JSON")
	}
}

func TestAuthenticateFlows(t *testing.T) {
	a := testAuthority(t)
	now := time.Hour

	// Wrong password.
	if _, err := a.Authenticate("alice", "nope", "", "", now); !errors.Is(err, ErrBadPassword) {
		t.Errorf("err = %v, want ErrBadPassword", err)
	}
	// MFA required for alice.
	if _, err := a.Authenticate("alice", "alice-pw", "", "", now); !errors.Is(err, ErrNeedMFA) {
		t.Errorf("err = %v, want ErrNeedMFA", err)
	}
	code, err := a.MFACodeFor("alice", now)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := a.Authenticate("alice", "alice-pw", code, "bulb-1", now)
	if err != nil {
		t.Fatal(err)
	}
	if !tok.MFA || tok.Priv != Advanced {
		t.Errorf("token = %+v, want MFA advanced", tok)
	}
	// Stale MFA code (old time step) fails.
	oldCode, _ := a.MFACodeFor("alice", now-10*time.Minute)
	if _, err := a.Authenticate("alice", "alice-pw", oldCode, "", now); !errors.Is(err, ErrBadMFA) {
		t.Errorf("stale MFA: err = %v, want ErrBadMFA", err)
	}
	// Bob has no MFA enrolled: password alone suffices, token unmarked.
	btok, err := a.Authenticate("bob", "bob-pw", "", "", now)
	if err != nil {
		t.Fatal(err)
	}
	if btok.MFA {
		t.Error("bob's token claims MFA")
	}
	// Unknown user.
	if _, err := a.Authenticate("mallory", "x", "", "", now); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("err = %v, want ErrUnknownUser", err)
	}
}

func TestAuthorizeRules(t *testing.T) {
	a := testAuthority(t)
	now := time.Hour
	code, _ := a.MFACodeFor("alice", now)
	advTok, _ := a.Authenticate("alice", "alice-pw", code, "", now)
	basicTok, _ := a.Authenticate("bob", "bob-pw", "", "", now)

	if err := a.Authorize(advTok, Advanced, "", now); err != nil {
		t.Errorf("advanced+MFA refused: %v", err)
	}
	if err := a.Authorize(basicTok, Advanced, "", now); !errors.Is(err, ErrPrivTooLow) {
		t.Errorf("basic doing write: err = %v, want ErrPrivTooLow", err)
	}
	if err := a.Authorize(basicTok, Basic, "", now); err != nil {
		t.Errorf("basic read refused: %v", err)
	}
}

func TestLifetimePolicyHook(t *testing.T) {
	a := testAuthority(t)
	a.LifetimePolicy = func(u User, dev string) time.Duration {
		if u.Priv == Advanced {
			return 10 * time.Minute // tighter for powerful tokens
		}
		return 2 * time.Hour
	}
	now := time.Hour
	code, _ := a.MFACodeFor("alice", now)
	advTok, _ := a.Authenticate("alice", "alice-pw", code, "", now)
	if got := advTok.ExpiresAt - advTok.IssuedAt; got != 10*time.Minute {
		t.Errorf("advanced lifetime = %s, want 10m", got)
	}
	basicTok, _ := a.Authenticate("bob", "bob-pw", "", "", now)
	if got := basicTok.ExpiresAt - basicTok.IssuedAt; got != 2*time.Hour {
		t.Errorf("basic lifetime = %s, want 2h", got)
	}
}

func TestProxyLANFastPath(t *testing.T) {
	a := testAuthority(t)
	p := NewProxy(a, DefaultProxyConfig())
	now := time.Hour
	basicTok, _ := a.Authenticate("bob", "bob-pw", "", "", now)

	// First LAN access presents the token: verified locally, cached.
	d1 := p.Handle(AccessRequest{User: "bob", DeviceID: "bulb-1", Origin: FromLAN, Token: &basicTok}, now)
	if !d1.Allowed || d1.AuthenticatedBy != "proxy-sso" {
		t.Fatalf("first LAN access: %s", d1)
	}
	// Second LAN access hits the cache, cheaper than cloud RTT.
	d2 := p.Handle(AccessRequest{User: "bob", DeviceID: "bulb-1", Origin: FromLAN}, now+time.Minute)
	if !d2.Allowed || d2.AuthenticatedBy != "proxy-cache" {
		t.Fatalf("cached LAN access: %s", d2)
	}
	if d2.Latency >= DefaultProxyConfig().CloudRTT {
		t.Errorf("cache latency %s not below cloud RTT", d2.Latency)
	}
	hits, fills, _ := p.Stats()
	if hits != 1 || fills != 1 {
		t.Errorf("stats hits=%d fills=%d, want 1/1", hits, fills)
	}
}

func TestProxyDeniesWithoutToken(t *testing.T) {
	a := testAuthority(t)
	p := NewProxy(a, DefaultProxyConfig())
	d := p.Handle(AccessRequest{User: "bob", Origin: FromLAN}, time.Hour)
	if d.Allowed {
		t.Error("LAN access with no token/cache allowed")
	}
	d = p.Handle(AccessRequest{User: "bob", Origin: FromWAN}, time.Hour)
	if d.Allowed {
		t.Error("WAN access without token allowed")
	}
}

func TestProxyWriteRequiresAdvancedMFA(t *testing.T) {
	a := testAuthority(t)
	p := NewProxy(a, DefaultProxyConfig())
	now := time.Hour
	basicTok, _ := a.Authenticate("bob", "bob-pw", "", "", now)
	d := p.Handle(AccessRequest{User: "bob", DeviceID: "cam-1", Origin: FromLAN, Write: true, Token: &basicTok}, now)
	if d.Allowed {
		t.Error("basic user permitted a write")
	}
	code, _ := a.MFACodeFor("alice", now)
	advTok, _ := a.Authenticate("alice", "alice-pw", code, "", now)
	d = p.Handle(AccessRequest{User: "alice", DeviceID: "cam-1", Origin: FromLAN, Write: true, Token: &advTok}, now)
	if !d.Allowed {
		t.Errorf("advanced+MFA write denied: %s", d)
	}
}

func TestProxyExpiredCacheEvicted(t *testing.T) {
	a := testAuthority(t)
	a.DefaultLifetime = time.Minute
	p := NewProxy(a, DefaultProxyConfig())
	now := time.Hour
	tok, _ := a.Authenticate("bob", "bob-pw", "", "", now)
	p.Prime(tok)
	// Way past expiry: cache cannot vouch, and with no fresh token the
	// request is denied.
	d := p.Handle(AccessRequest{User: "bob", Origin: FromLAN}, now+time.Hour)
	if d.Allowed {
		t.Error("expired cached token accepted")
	}
}

func TestProxyWANAlwaysRevalidates(t *testing.T) {
	a := testAuthority(t)
	p := NewProxy(a, DefaultProxyConfig())
	now := time.Hour
	tok, _ := a.Authenticate("bob", "bob-pw", "", "", now)
	d := p.Handle(AccessRequest{User: "bob", Origin: FromWAN, Token: &tok}, now)
	if !d.Allowed || d.AuthenticatedBy != "cloud-sso+mfa" {
		t.Fatalf("WAN access: %s", d)
	}
	if d.Latency != DefaultProxyConfig().CloudRTT {
		t.Errorf("WAN latency = %s, want cloud RTT", d.Latency)
	}
}

func TestBaselineLatencyShape(t *testing.T) {
	a := testAuthority(t)
	cfg := BaselineConfig{CloudRTT: 45 * time.Millisecond, DeviceVerify: 30 * time.Millisecond, RedirectRTT: 10 * time.Millisecond}
	b := NewBaseline(a, cfg)
	now := time.Hour
	code, _ := a.MFACodeFor("alice", now)
	advTok, _ := a.Authenticate("alice", "alice-pw", code, "", now)

	read := b.Handle(AccessRequest{User: "alice", Token: &advTok}, now)
	if !read.Allowed || read.Latency != cfg.CloudRTT {
		t.Errorf("baseline read: %s", read)
	}
	write := b.Handle(AccessRequest{User: "alice", Write: true, Token: &advTok}, now)
	if !write.Allowed {
		t.Fatalf("baseline write denied: %s", write)
	}
	if write.Latency != cfg.CloudRTT+cfg.RedirectRTT+cfg.DeviceVerify {
		t.Errorf("baseline write latency = %s", write.Latency)
	}

	// The XLF proxy LAN fast path beats the baseline read path.
	p := NewProxy(a, DefaultProxyConfig())
	p.Prime(advTok)
	d := p.Handle(AccessRequest{User: "alice", Origin: FromLAN}, now)
	if !d.Allowed || d.Latency >= read.Latency {
		t.Errorf("proxy LAN (%s) not faster than baseline cloud (%s)", d.Latency, read.Latency)
	}
}

func TestNewAuthorityValidation(t *testing.T) {
	if _, err := NewAuthority(nil, nil); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := NewAuthority([]byte("k"), []User{{Name: ""}}); err == nil {
		t.Error("empty user name accepted")
	}
	if _, err := NewAuthority([]byte("k"), []User{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Error("duplicate user accepted")
	}
}

// BenchmarkTokenVerify checks a valid device-bound token, the proxy's
// per-request SSO and timestamp validation.
func BenchmarkTokenVerify(b *testing.B) {
	s, err := NewSigner([]byte("bench-signing-key"))
	if err != nil {
		b.Fatal(err)
	}
	tok := s.Issue("alice", "bulb-1", Advanced, true, time.Minute, time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Verify(tok, 2*time.Minute, "bulb-1"); err != nil {
			b.Fatal(err)
		}
	}
}
