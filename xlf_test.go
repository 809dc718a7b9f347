package xlf

import (
	"errors"
	"strings"
	"testing"
	"time"

	"xlf/internal/analytics"
	"xlf/internal/attack"
	"xlf/internal/core"
	"xlf/internal/netsim"
	"xlf/internal/service"
)

func protectedSystem(t *testing.T, seed int64) *System {
	t.Helper()
	sys, err := New(Options{
		Seed: seed,
		// XLF protects a legacy platform that still has its flaws; the
		// point is that the cross-layer functions catch the abuse anyway.
		Flaws: service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestBenignDayRaisesNoAlerts(t *testing.T) {
	sys := protectedSystem(t, 7)
	// A normal day: keepalives plus legitimate user interactions.
	sched := []struct {
		at    time.Duration
		dev   string
		event string
	}{
		{10 * time.Second, "bulb-1", "on"},
		{30 * time.Second, "thermo-1", "heat"},
		{50 * time.Second, "thermo-1", "target_reached"},
		{80 * time.Second, "bulb-1", "dim"},
		{2 * time.Minute, "bulb-1", "off"},
		{3 * time.Minute, "cam-1", "motion"},
		{3*time.Minute + 20*time.Second, "cam-1", "clear"},
	}
	for _, e := range sched {
		e := e
		sys.Home.Kernel.Schedule(e.at, "user", func() {
			if err := sys.Home.UserEvent(e.dev, e.event); err != nil {
				t.Errorf("user event %s/%s: %v", e.dev, e.event, err)
			}
		})
	}
	// Benign telemetry (sensor readings outside the actuation alphabet)
	// must not be misjudged as illegal transitions.
	sys.Home.Kernel.Every(45*time.Second, 0, "telemetry", func() {
		sys.Home.Cloud.PublishDeviceEvent("thermo-1", "temperature", 71.5)
	})
	if err := sys.Home.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if alerts := sys.Core.Alerts(); len(alerts) != 0 {
		t.Errorf("benign day produced %d alerts: %v", len(alerts), alerts)
	}
	if sys.NAC.Denials() != 0 {
		t.Errorf("benign day produced %d NAC denials", sys.NAC.Denials())
	}
}

func TestMiraiCampaignDetectedAndContained(t *testing.T) {
	sys := protectedSystem(t, 11)
	env := sys.Home.AttackEnv()

	m := &attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 10 * time.Second}
	res := m.Execute(env)
	if !res.Succeeded {
		t.Fatalf("recruitment failed: %s", res)
	}
	if err := sys.Home.Run(3 * time.Minute); err != nil {
		t.Fatal(err)
	}

	alerts := sys.Core.Alerts()
	if len(alerts) == 0 {
		t.Fatal("XLF raised no alerts for a Mirai campaign")
	}
	// The recruited camera must be flagged and contained.
	flagged := sys.Core.FlaggedDevices()
	camFlagged := false
	for _, id := range flagged {
		if id == "cam-1" {
			camFlagged = true
		}
	}
	if !camFlagged {
		t.Errorf("cam-1 not flagged; flagged=%v", flagged)
	}
	contained := false
	for _, a := range alerts {
		if a.DeviceID == "cam-1" && a.Action != "" {
			contained = true
		}
	}
	if !contained {
		t.Error("no containment action on the recruited camera")
	}
	// NAC (with C&C never enrolled) must have refused beacons even before
	// quarantine: wan:cnc is not an allowed destination.
	if sys.NAC.Denials() == 0 {
		t.Error("NAC never denied the C&C traffic")
	}
}

func TestNACBlocksCCBeacons(t *testing.T) {
	sys := protectedSystem(t, 13)
	env := sys.Home.AttackEnv()
	(&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 5 * time.Second}).Execute(env)
	sys.Home.Run(2 * time.Minute)
	// No beacon may reach the WAN side: the C&C endpoint is not enrolled.
	for _, r := range sys.Home.WANCap.Records() {
		if r.Dst == "wan:cnc" {
			t.Fatalf("C&C beacon escaped the NAC: %+v", r)
		}
	}
}

// TestNACDenialTexts pins what a refusal at the protected gateway looks
// like to its callers: the SendOut error text and chain, and the Detail of
// the nac-denial signal the Core ingests.
func TestNACDenialTexts(t *testing.T) {
	sys := protectedSystem(t, 1)
	gw := sys.Home.Gateway
	pkt := &netsim.Packet{Src: "lan:a", Dst: "wan:b", DstPort: 80}
	err := gw.SendOut(sys.Home.Net, pkt)
	if want := "netsim: outbound blocked: core: NAC denies lan:a -> wan:b"; err == nil || err.Error() != want {
		t.Fatalf("SendOut error = %v, want %q", err, want)
	}
	if inner := errors.Unwrap(err); inner == nil || inner.Error() != "core: NAC denies lan:a -> wan:b" {
		t.Errorf("unwrapped error = %v", inner)
	}
	// A strong device-layer signal alerts on "a" with the denial in its
	// evidence, and containment cuts the device off.
	a := sys.Core.Ingest(core.Signal{
		Time: sys.Home.Kernel.Now(), Layer: core.Device, Source: "test",
		DeviceID: "a", Kind: "scan", Score: 0.9,
	})
	if a == nil {
		t.Fatal("no alert on device a")
	}
	var details []string
	for _, s := range a.Evidence {
		if s.Kind == "nac-denial" {
			details = append(details, s.Detail)
		}
	}
	if len(details) != 1 || details[0] != "denied lan:a -> wan:b:80" {
		t.Errorf("nac-denial details = %q, want [\"denied lan:a -> wan:b:80\"]", details)
	}
	err = gw.SendOut(sys.Home.Net, pkt)
	if want := "netsim: outbound blocked: core: lan:a is quarantined"; err == nil || err.Error() != want {
		t.Errorf("SendOut error after containment = %v, want %q", err, want)
	}
}

func TestEventSpoofCaughtByBehaviorDFA(t *testing.T) {
	sys := protectedSystem(t, 17)
	env := sys.Home.AttackEnv()
	// Legitimate state: camera is monitoring. A spoofed "clear" event is
	// illegal (clear is only legal while recording).
	res := (&attack.EventSpoof{DeviceID: "cam-1", Event: "clear", Value: 1}).Execute(env)
	if !res.Succeeded {
		t.Fatalf("spoof rejected unexpectedly: %s", res)
	}
	sys.Home.Run(30 * time.Second)
	found := false
	for _, a := range sys.Core.Alerts() {
		for _, e := range a.Evidence {
			if e.Kind == "illegal-transition" && e.DeviceID == "cam-1" {
				found = true
			}
		}
	}
	if !found {
		// A single behaviour signal may sit below the alert threshold;
		// check the monitor recorded the deviation at minimum.
		if _, devs := sys.Monitors["cam-1"].Stats(); devs == 0 {
			t.Error("spoofed event not even recorded as deviation")
		}
	}
}

func TestDFALegalSpoofCaughtByRFEvidence(t *testing.T) {
	sys := protectedSystem(t, 83)
	env := sys.Home.AttackEnv()
	// "motion" IS legal in the camera's monitoring state, so the DFA
	// check passes — but the event was injected at the service layer with
	// no radio activity from the camera. Only the cross-layer RF check
	// catches it.
	res := (&attack.EventSpoof{DeviceID: "cam-1", Event: "motion", Value: 1}).Execute(env)
	if !res.Succeeded {
		t.Fatalf("spoof rejected: %s", res)
	}
	sys.Home.Run(30 * time.Second)
	found := false
	for _, a := range sys.Core.AlertsFor("cam-1") {
		for _, e := range a.Evidence {
			if e.Kind == "no-rf-evidence" {
				found = true
			}
		}
	}
	if !found {
		t.Error("DFA-legal spoof escaped the RF-evidence check")
	}

	// A real motion event (with its uplink packet) is never flagged.
	sys2 := protectedSystem(t, 89)
	if err := sys2.Home.UserEvent("cam-1", "motion"); err != nil {
		t.Fatal(err)
	}
	sys2.Home.Run(30 * time.Second)
	for _, a := range sys2.Core.AlertsFor("cam-1") {
		for _, e := range a.Evidence {
			if e.Kind == "no-rf-evidence" {
				t.Errorf("real event flagged as spoofed: %s", a)
			}
		}
	}
}

func TestRogueAppCaughtByAppVerification(t *testing.T) {
	sys := protectedSystem(t, 19)
	env := sys.Home.AttackEnv()
	res := (&attack.RogueApp{
		AppID: "free-wallpaper", CoverDevice: "window-1", CoverCap: "contact",
		TargetDevice: "window-1", TargetCommand: "unlock",
	}).Execute(env)
	if !res.Succeeded {
		t.Fatalf("rogue app failed on flawed platform: %s", res)
	}
	sys.Home.Run(30 * time.Second)
	removed := true
	for _, id := range sys.Home.Cloud.Apps() {
		if id == "free-wallpaper" {
			removed = false
		}
	}
	if !removed {
		t.Error("rogue app not removed by containment")
	}
	foundSignal := false
	for _, a := range sys.Core.Alerts() {
		for _, e := range a.Evidence {
			if strings.HasPrefix(e.Kind, "rogue-app:") {
				foundSignal = true
			}
		}
	}
	if !foundSignal {
		t.Error("application verification produced no rogue-app evidence")
	}
}

func TestPolicyAbuseCaughtByContextAnalytics(t *testing.T) {
	sys := protectedSystem(t, 23)
	if err := sys.InstallApp(climateApp()); err != nil {
		t.Fatal(err)
	}
	// Winter night, nobody home.
	sys.SetContext(analytics.Context{OutdoorTempF: 28, UserHome: false})
	env := sys.Home.AttackEnv()
	res := (&attack.PolicyAbuse{ThermoID: "thermo-1", FakeTempF: 95}).Execute(env)
	if !res.Succeeded {
		t.Fatalf("policy abuse failed: %s", res)
	}
	sys.Home.Run(30 * time.Second)
	found := false
	for _, a := range sys.Core.Alerts() {
		for _, e := range a.Evidence {
			if strings.HasPrefix(e.Kind, "context:") {
				found = true
			}
		}
	}
	if !found {
		t.Error("contextual analytics missed the §IV-C3 abuse")
	}
	// The same automation on a hot day with the user home is fine.
	sys2 := protectedSystem(t, 29)
	if err := sys2.InstallApp(climateApp()); err != nil {
		t.Fatal(err)
	}
	sys2.SetContext(analytics.Context{OutdoorTempF: 95, UserHome: true})
	(&attack.PolicyAbuse{ThermoID: "thermo-1", FakeTempF: 95}).Execute(sys2.Home.AttackEnv())
	sys2.Home.Run(30 * time.Second)
	for _, a := range sys2.Core.Alerts() {
		for _, e := range a.Evidence {
			if strings.HasPrefix(e.Kind, "context:") {
				t.Errorf("benign summer automation flagged: %s", a)
			}
		}
	}
}

func climateApp() *service.SmartApp {
	above := 80.0
	return &service.SmartApp{
		ID: "climate-window",
		Rules: []service.Rule{{
			TriggerDevice: "thermo-1", TriggerEvent: "temperature", TriggerAbove: &above,
			ActionDevice: "window-1", ActionCommand: "open",
		}},
		Grants: []service.Grant{
			{DeviceID: "thermo-1", Capability: "temperature"},
			{DeviceID: "window-1", Capability: "lock"},
		},
	}
}

func TestFirmwareTamperCaughtByAttestation(t *testing.T) {
	sys := protectedSystem(t, 31)
	env := sys.Home.AttackEnv()
	res := (&attack.FirmwareModulation{Target: "cam-1"}).Execute(env)
	if !res.Succeeded {
		t.Fatalf("tamper failed: %s", res)
	}
	sys.Home.Run(2 * time.Minute)
	found := false
	for _, a := range sys.Core.AlertsFor("cam-1") {
		for _, e := range a.Evidence {
			if e.Kind == "firmware-tamper" || strings.HasPrefix(e.Kind, "dpi:") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("firmware tamper not detected; alerts=%v", sys.Core.Alerts())
	}
}

func TestUnprotectedBaselineSeesNothing(t *testing.T) {
	sys, err := New(Options{Seed: 37, DisableProtection: true,
		Flaws: service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true}})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Protected() {
		t.Fatal("Protected() = true")
	}
	env := sys.Home.AttackEnv()
	(&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 5 * time.Second}).Execute(env)
	sys.Home.Run(time.Minute)
	// Beacons flow freely without XLF.
	beacons := 0
	for _, r := range sys.Home.WANCap.Records() {
		if r.Dst == "wan:cnc" {
			beacons++
		}
	}
	if beacons == 0 {
		t.Error("expected unimpeded beacons on the unprotected baseline")
	}
	if strings.Contains(sys.Report(), "alerts:") {
		t.Error("unprotected report mentions alerts")
	}
}

func TestLearnedModelCatchesDFALessDeviceAbuse(t *testing.T) {
	sys := protectedSystem(t, 43)
	// The smart speaker has no automation DFA; XLF learned its typical
	// traces. A benign session (real device interactions, with their
	// radio traffic) raises nothing.
	for _, ev := range []string{"wake", "query", "response", "idle"} {
		if err := sys.Home.UserEvent("speaker-1", ev); err != nil {
			t.Fatal(err)
		}
	}
	sys.Home.Run(30 * time.Second)
	if got := sys.Core.AlertsFor("speaker-1"); len(got) != 0 {
		t.Fatalf("benign speaker session alerted: %v", got)
	}

	// A compromised speaker suddenly emits transitions never seen in
	// benign use (e.g. straight from idle into bulk exfil-style events).
	sys2 := protectedSystem(t, 47)
	for _, ev := range []string{"wake", "exfil", "exfil", "exfil"} {
		sys2.Home.Cloud.PublishDeviceEvent("speaker-1", ev, 0)
	}
	sys2.Home.Run(30 * time.Second)
	found := false
	for _, a := range sys2.Core.AlertsFor("speaker-1") {
		for _, e := range a.Evidence {
			if e.Kind == "unseen-transition" {
				found = true
			}
		}
	}
	if !found {
		t.Error("learned model missed the never-seen transitions")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() string {
		sys := protectedSystem(t, 99)
		env := sys.Home.AttackEnv()
		(&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 10 * time.Second}).Execute(env)
		sys.Home.Run(2 * time.Minute)
		return sys.Report()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("replay diverged:\n--- run1 ---\n%s\n--- run2 ---\n%s", a, b)
	}
}

func TestExfiltrationThroughEnrolledChannelCaughtByVolume(t *testing.T) {
	// A compromised camera exfiltrates through its own vendor endpoint:
	// the destination is enrolled (NAC passes) and the payload is
	// encrypted (DPI blind). Only the uplink volume baseline catches it.
	sys := protectedSystem(t, 101)
	// Let baselines warm up on normal keepalives first.
	sys.Home.Run(10 * time.Minute)
	sys.Home.Devices["cam-1"].Compromise("exfil-implant")
	sys.Home.Kernel.Every(time.Second, 100*time.Millisecond, "exfil", func() {
		if !sys.Home.Devices["cam-1"].Compromised {
			return
		}
		sys.Home.Gateway.SendOut(sys.Home.Net, &netsim.Packet{
			Src: "lan:cam-1", SrcPort: 7443,
			Dst: "wan:stream.smartcam.example", DstPort: 443,
			Proto: "TLS", Encrypted: true, Size: 1400, App: "attack:exfil",
		})
	})
	sys.Home.Run(sys.Home.Kernel.Now() + 5*time.Minute)
	found := false
	for _, a := range sys.Core.AlertsFor("cam-1") {
		for _, e := range a.Evidence {
			if e.Kind == "traffic-anomaly" {
				found = true
			}
		}
	}
	if !found {
		t.Error("enrolled-channel exfiltration escaped the volume baseline")
	}
}

func TestDetectionSurvivesPacketLoss(t *testing.T) {
	// Failure injection: degrade every LAN link to 10% loss after
	// assembly. Scan/brute-force/loader traffic is repetitive, so the
	// campaign must still be detected despite dropped evidence packets.
	sys := protectedSystem(t, 53)
	for id := range sys.Home.Devices {
		link, ok := sys.Home.Net.LinkOf(netsim.Addr("lan:" + id))
		if !ok {
			t.Fatalf("no link for %s", id)
		}
		link.Loss = 0.10
		if err := sys.Home.Net.SetLink(netsim.Addr("lan:"+id), link); err != nil {
			t.Fatal(err)
		}
	}
	env := sys.Home.AttackEnv()
	(&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 10 * time.Second}).Execute(env)
	sys.Home.Run(2 * time.Minute)
	if len(sys.Core.AlertsFor("cam-1")) == 0 {
		t.Error("campaign undetected under 10% packet loss")
	}
}

func TestShapingDoesNotConfuseOwnDetectors(t *testing.T) {
	// Rate-equalised cover traffic is machine-periodic by design; it must
	// not generate alerts against the home's own devices (shaped WAN
	// flows carry the gateway's address, which is never attributed).
	sys, err := New(Options{
		Seed:         67,
		ShapingLevel: 1.0,
		Flaws:        service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Home.Run(3 * time.Minute)
	if alerts := sys.Core.Alerts(); len(alerts) != 0 {
		t.Errorf("shaped benign home raised %d alerts: %v", len(alerts), alerts)
	}
	// Dummy cells are actually flowing.
	dummies := false
	if sys.Shaper.Stats().DummyPackets > 0 {
		dummies = true
	}
	if !dummies {
		t.Error("shaper emitted no cover traffic")
	}

	// And detection of a real campaign still works under shaping: the
	// evidence (LAN scans, DPI loader, NAC denials) is pre-shaper.
	sys2, err := New(Options{
		Seed:         71,
		ShapingLevel: 1.0,
		Flaws:        service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	(&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 10 * time.Second}).Execute(sys2.Home.AttackEnv())
	sys2.Home.Run(2 * time.Minute)
	if len(sys2.Core.AlertsFor("cam-1")) == 0 {
		t.Error("campaign undetected under full shaping")
	}
}

func TestLightweightEncryptionOption(t *testing.T) {
	sys, err := New(Options{Seed: 61, LightweightEncryption: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Home.Sessions) == 0 {
		t.Fatal("no channel sessions established")
	}
	sys.Home.Run(time.Minute)
	rep := sys.Report()
	if !strings.Contains(rep, "lightweight encryption sessions") {
		t.Errorf("report missing session inventory:\n%s", rep)
	}
	// Sealed traffic is flowing on the wire.
	sealed := 0
	for _, r := range sys.Home.WANCap.Records() {
		if r.Proto == "XLF-LWC" {
			sealed++
		}
	}
	if sealed == 0 {
		t.Error("no sealed keepalives observed")
	}
	// The unprotected baseline never establishes sessions even if asked.
	base, err := New(Options{Seed: 61, LightweightEncryption: true, DisableProtection: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Home.Sessions) != 0 {
		t.Error("unprotected baseline created sessions")
	}
}

func TestReportContents(t *testing.T) {
	sys := protectedSystem(t, 41)
	sys.Home.Run(30 * time.Second)
	rep := sys.Report()
	for _, want := range []string{"XLF report", "network:", "NAC denials", "alerts:"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	// Figures render from the live architecture.
	if !strings.Contains(sys.Arch.RenderFigure4(), "Traffic shaping") {
		t.Error("figure 4 incomplete")
	}
}
