package xlf_test

// Benchmark harness: one benchmark per paper table and figure plus one per
// quantitative experiment (E1-E8), as indexed in DESIGN.md. Each bench
// regenerates its artifact end to end, so `go test -bench=.` reproduces
// the entire evaluation; per-cipher micro-benchmarks cover the Table III
// throughput column at testing.B fidelity.

import (
	"testing"
	"time"

	"xlf"
	"xlf/internal/attack"
	"xlf/internal/core"
	"xlf/internal/exp"
	"xlf/internal/lwc"
	"xlf/internal/netsim"
	"xlf/internal/obs"
	"xlf/internal/service"
)

// sinkResult prevents dead-code elimination of experiment outputs.
var sinkResult *exp.Result

func benchExperiment(b *testing.B, fn func(seed int64) *exp.Result) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sinkResult = fn(int64(i + 1))
	}
}

// benchRegistry resolves one registry descriptor and regenerates its
// artifact per iteration, seeding each run differently so the costs are
// not cache artifacts.
func benchRegistry(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.Lookup(id)
	if !ok {
		b.Fatalf("registry lost %s", id)
	}
	benchExperiment(b, func(seed int64) *exp.Result { return e.Run(exp.NewEnv(seed)) })
}

func BenchmarkTable1DeviceProfiles(b *testing.B) { benchRegistry(b, "T1") }

func BenchmarkTable2AttackSurface(b *testing.B) { benchRegistry(b, "T2") }

func BenchmarkTable3Ciphers(b *testing.B) { benchRegistry(b, "T3") }

func BenchmarkFigure2ProtocolRegistry(b *testing.B) {
	benchExperiment(b, func(int64) *exp.Result { return exp.Figure2() })
}

func BenchmarkFigure3AttackSurfaceMap(b *testing.B) {
	benchExperiment(b, func(int64) *exp.Result { return exp.Figure3() })
}

func BenchmarkFiguresArchitecture(b *testing.B) {
	benchExperiment(b, func(int64) *exp.Result {
		sinkResult = exp.Figure1()
		return exp.Figure4()
	})
}

func BenchmarkE1CrossLayerDetection(b *testing.B) { benchRegistry(b, "E1") }

func BenchmarkE2TrafficShaping(b *testing.B) { benchRegistry(b, "E2") }

func BenchmarkE3AuthDelegation(b *testing.B) { benchRegistry(b, "E3") }

func BenchmarkE4EncryptedDPI(b *testing.B) { benchRegistry(b, "E4") }

func BenchmarkE5BehaviorDFA(b *testing.B) { benchRegistry(b, "E5") }

func BenchmarkE6CoreLearning(b *testing.B) { benchRegistry(b, "E6") }

func BenchmarkE7DNSPrivacy(b *testing.B) { benchRegistry(b, "E7") }

func BenchmarkE8Botnet(b *testing.B) { benchRegistry(b, "E8") }

func BenchmarkE9Stability(b *testing.B) { benchRegistry(b, "E9") }

// BenchmarkTable3Cipher/<name> measures each Table III algorithm's block
// throughput individually (the table's software metric at testing.B
// fidelity).
func BenchmarkTable3Cipher(b *testing.B) {
	reg := lwc.NewRegistry()
	for _, info := range reg.All() {
		info := info
		b.Run(info.Name, func(b *testing.B) {
			key := make([]byte, info.DefaultKeyBits()/8)
			for i := range key {
				key[i] = byte(i * 3)
			}
			blk, err := info.New(key)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, blk.BlockSize())
			b.SetBytes(int64(blk.BlockSize()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk.Encrypt(buf, buf)
			}
		})
	}
}

// BenchmarkScenarioSimulation measures raw simulation throughput: one full
// protected home under the composite campaign.
func BenchmarkScenarioSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := xlf.New(xlf.Options{
			Seed:  int64(i + 1),
			Flaws: service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		env := sys.Home.AttackEnv()
		(&attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 15 * time.Second}).Execute(env)
		if err := sys.Home.Run(5 * time.Minute); err != nil {
			b.Fatal(err)
		}
		if len(sys.Core.Alerts()) == 0 {
			b.Fatal("campaign not detected")
		}
	}
}

// benchIngest drives the correlation engine's signal path with a rotating
// stream of sub-threshold signals across devices and layers. tracer == nil
// is the production default (nil-check fast path); a live tracer adds one
// ring-buffer append per accepted signal.
func benchIngest(b *testing.B, tracer *obs.Tracer) {
	b.Helper()
	sys, err := xlf.New(xlf.Options{Seed: 1, Tracer: tracer})
	if err != nil {
		b.Fatal(err)
	}
	layers := []core.LayerName{core.Device, core.Network, core.Service}
	devices := []string{"bulb-1", "cam-1", "thermo-1", "fridge-1"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Core.Ingest(core.Signal{
			Time:     time.Duration(i) * time.Millisecond,
			Layer:    layers[i%len(layers)],
			Source:   "bench",
			DeviceID: devices[i%len(devices)],
			Kind:     "bench-signal",
			Score:    0.3,
		})
	}
}

// BenchmarkGatewayDeny measures one refusal at the protected home's
// gateway: an unenrolled destination goes through the NAC hook, OnDeny's
// nac-denial signal and Core.Ingest, and SendOut returns its error. The
// device's window reaches its cap early, so the steady state is the
// refusal alone.
func BenchmarkGatewayDeny(b *testing.B) {
	sys, err := xlf.New(xlf.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gw, net := sys.Home.Gateway, sys.Home.Net
	pkt := &netsim.Packet{
		Src: "lan:cam-1", SrcPort: 50000, Dst: "wan:victim", DstPort: 80,
		Proto: "UDP", Size: 512, App: "attack:flood",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if gw.SendOut(net, pkt) == nil {
			b.Fatal("unenrolled destination forwarded")
		}
	}
}

// BenchmarkCoreIngest is the disabled-tracer baseline: observability off,
// the hot path pays only a nil check. Compare against
// BenchmarkCoreIngestTraced to bound the tracing overhead (DESIGN.md §8).
func BenchmarkCoreIngest(b *testing.B) { benchIngest(b, nil) }

// BenchmarkCoreIngestTraced is the same signal stream with a live span
// recorder attached, measuring the enabled-tracer cost per signal.
func BenchmarkCoreIngestTraced(b *testing.B) {
	benchIngest(b, obs.NewTracer(obs.DefaultCapacity, nil))
}
