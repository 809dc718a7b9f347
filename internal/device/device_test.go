package device

import (
	"strings"
	"testing"

	"xlf/internal/lwc"
)

func TestTable1HasTwentyRows(t *testing.T) {
	rows := Table1()
	if len(rows) != 20 {
		t.Fatalf("Table I has %d rows, want 20", len(rows))
	}
	seen := make(map[string]bool)
	for _, p := range rows {
		if p.Name == "" || p.Chipset == "" {
			t.Errorf("row %+v missing name/chipset", p)
		}
		if seen[p.Name] {
			t.Errorf("duplicate row %q", p.Name)
		}
		seen[p.Name] = true
	}
	// Each call returns its own copy of the rows.
	rows[7].CoreHz = 0
	if p, _ := ProfileByName(rows[7].Name); p.CoreHz == 0 || Table1()[7].CoreHz == 0 {
		t.Error("changing Table1's result changed the table")
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("Philips Hue Lightbulb")
	if err != nil {
		t.Fatal(err)
	}
	if p.CoreHz != 32e6 {
		t.Errorf("Hue core = %v, want 32MHz", p.CoreHz)
	}
	if _, err := ProfileByName("Nonexistent Gadget"); err == nil {
		t.Error("ProfileByName accepted unknown name")
	}
}

func TestDeviceClasses(t *testing.T) {
	cases := []struct {
		name string
		want Class
	}{
		{"HID Glass Tag Ultra (RFID)", Class0},
		{"Philips Hue Lightbulb", Class1},
		{"REX2 Smart Meter", Class1},
		{"iPhone 6s Plus", ClassUnconstrained},
	}
	for _, tc := range cases {
		p, err := ProfileByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.DeviceClass(); got != tc.want {
			t.Errorf("%s class = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCostModelConstraintStructure(t *testing.T) {
	// The structural claim of Table I: the same cipher is orders of
	// magnitude slower on the bulb than on the hub, and heavy ciphers do
	// not fit the smallest devices.
	bulb, _ := ProfileByName("Philips Hue Lightbulb")
	phone, _ := ProfileByName("iPhone 6s Plus")
	reg := lwc.NewRegistry()
	aes, _ := reg.Lookup("AES")

	cb := CostModel(bulb, aes.CyclesPerByte, aes.RAMBytes)
	cp := CostModel(phone, aes.CyclesPerByte, aes.RAMBytes)
	if cb.SecondsPerKB <= cp.SecondsPerKB*100 {
		t.Errorf("bulb AES %.3gs/KB not >>100x phone %.3gs/KB", cb.SecondsPerKB, cp.SecondsPerKB)
	}
	if !cb.Fits {
		t.Error("AES should fit an 8KB-RAM bulb (256B schedule)")
	}

	// The RFID tag (64B RAM) fits almost nothing.
	tag, _ := ProfileByName("HID Glass Tag Ultra (RFID)")
	ct := CostModel(tag, aes.CyclesPerByte, aes.RAMBytes)
	if ct.Fits {
		t.Error("AES reported as fitting a 512-bit RFID tag")
	}
}

func TestAffordableCiphersOrdering(t *testing.T) {
	reg := lwc.NewRegistry()
	bulb, _ := ProfileByName("Philips Hue Lightbulb")
	list := AffordableCiphers(bulb, reg)
	if len(list) == 0 {
		t.Fatal("no affordable ciphers for the bulb")
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].CyclesPerByte > list[i].CyclesPerByte {
			t.Fatal("AffordableCiphers not sorted by cost")
		}
	}
	// TEA (16B of key state) must be affordable on everything with >=4KB.
	found := false
	for _, info := range list {
		if info.Name == "TEA" {
			found = true
		}
	}
	if !found {
		t.Error("TEA missing from bulb's affordable set")
	}
}

func TestBatteryAccounting(t *testing.T) {
	bulb := NewSmartBulb("b")
	reg := lwc.NewRegistry()
	tea, _ := reg.Lookup("TEA")
	cost := CostModel(bulb.Profile, tea.CyclesPerByte, tea.RAMBytes)
	before := bulb.BatteryUJ
	if !bulb.SpendCrypto(cost, 4096) {
		t.Fatal("bulb could not afford 4KB of TEA")
	}
	if bulb.BatteryUJ >= before {
		t.Error("battery not drained")
	}
	// AC devices never drain.
	cam := NewNetworkCamera("c")
	if !cam.SpendCrypto(cost, 1<<20) {
		t.Error("AC camera refused crypto work")
	}
}

func TestBehaviorDFA(t *testing.T) {
	b := NewSmartBulb("b")
	if b.State() != "off" {
		t.Fatalf("initial state = %q, want off", b.State())
	}
	if err := b.Apply("on"); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply("dim"); err != nil {
		t.Fatal(err)
	}
	if b.State() != "dimmed" {
		t.Errorf("state = %q, want dimmed", b.State())
	}
	// Illegal event rejected without state change.
	if err := b.Apply("brew"); err == nil {
		t.Error("bulb accepted 'brew'")
	}
	if b.State() != "dimmed" {
		t.Error("state changed on rejected event")
	}
	if got := len(b.History()); got != 2 {
		t.Errorf("history length = %d, want 2", got)
	}
}

func TestBehaviorRejectsNondeterminism(t *testing.T) {
	_, err := NewBehavior("a", []Transition{
		{From: "a", Event: "x", To: "b"},
		{From: "a", Event: "x", To: "c"},
	})
	if err == nil {
		t.Fatal("NewBehavior accepted nondeterministic transitions")
	}
}

func TestBehaviorAlphabetAndStates(t *testing.T) {
	b := NewThermostat("t").Behavior
	events := b.Events()
	if len(events) != 3 { // heat, cool, target_reached
		t.Errorf("events = %v, want 3 distinct", events)
	}
	states := b.States()
	if len(states) != 3 { // idle, heating, cooling
		t.Errorf("states = %v, want 3", states)
	}
}

func TestFirmwareVerification(t *testing.T) {
	fw := NewFirmware("1.0", []byte("image-bytes"), true)
	if !fw.Verify() {
		t.Fatal("fresh firmware fails verification")
	}
	fw.BuildData[0] ^= 0xFF
	if fw.Verify() {
		t.Error("modified firmware passes verification")
	}
}

func TestLoginAndCompromise(t *testing.T) {
	cam := NewNetworkCamera("c")
	if !cam.Login("admin", "1234") {
		t.Error("default login rejected")
	}
	if cam.Login("admin", "wrong") {
		t.Error("wrong password accepted")
	}
	cam.Compromise("mirai")
	if !cam.Compromised || cam.Malware != "mirai" {
		t.Error("compromise not recorded")
	}
	cam.Disinfect()
	if cam.Compromised || cam.Malware != "" {
		t.Error("disinfect incomplete")
	}
}

func TestCatalogIntegrity(t *testing.T) {
	cat := Catalog()
	if len(cat) != 11 {
		t.Fatalf("catalog has %d devices, want 11", len(cat))
	}
	ids := make(map[string]bool)
	for _, d := range cat {
		if ids[d.ID] {
			t.Errorf("duplicate device id %q", d.ID)
		}
		ids[d.ID] = true
		if d.Behavior == nil && len(d.TypicalTraces) == 0 {
			t.Errorf("%s has neither a behaviour automaton nor typical traces", d.ID)
		}
		if len(d.CloudDomains) == 0 {
			t.Errorf("%s has no cloud domains", d.ID)
		}
	}
}

func TestFormatTable1(t *testing.T) {
	out := FormatTable1()
	if !strings.Contains(out, "Table I") {
		t.Error("missing title")
	}
	for _, want := range []string{"Philips Hue", "iPhone 6s Plus", "Battery", "AC Power"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I render missing %q", want)
		}
	}
	if got := len(strings.Split(strings.TrimSpace(out), "\n")); got != 22 { // title + header + 20 rows
		t.Errorf("render has %d lines, want 22", got)
	}
}

func TestHasOpenPort(t *testing.T) {
	cam := NewNetworkCamera("c")
	if !cam.HasOpenPort("telnet") {
		t.Error("camera telnet port missing")
	}
	if cam.HasOpenPort("ssh") {
		t.Error("phantom ssh port")
	}
}

func TestWeakPasswordsAreDefaults(t *testing.T) {
	for _, c := range WeakPasswords {
		if !c.Default {
			t.Errorf("weak credential %s/%s not marked default", c.User, c.Password)
		}
	}
}
