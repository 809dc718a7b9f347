// Package device models the XLF device layer: the hardware profiles of
// Table I, a cycle-budget cost model that maps cryptographic work onto
// constrained cores, and a runtime device abstraction (firmware, resident
// software, credentials, ports, sensors, and a ground-truth behaviour
// state machine) that the testbed instantiates for every appliance.
package device

import (
	"fmt"
	"math"
)

// PowerSource is the power column of Table I.
type PowerSource int

// Power sources, per Table I.
const (
	PowerUnknown PowerSource = iota
	PowerBattery
	PowerAC
	PowerPassive // RFID tags powered by the reader field
)

func (p PowerSource) String() string {
	switch p {
	case PowerBattery:
		return "Battery"
	case PowerAC:
		return "AC Power"
	case PowerPassive:
		return "Passive (field)"
	default:
		return "NA"
	}
}

// Class is the RFC 7228 constrained-device class, derived from RAM/flash.
type Class int

// Device classes. Class0 cannot run standard crypto stacks at all; Class1
// fits lightweight ciphers; Class2 runs conventional stacks; ClassUnconstrained
// is hub/phone grade.
const (
	Class0 Class = iota
	Class1
	Class2
	ClassUnconstrained
)

func (c Class) String() string {
	switch c {
	case Class0:
		return "C0 (<<10KB RAM)"
	case Class1:
		return "C1 (~10KB RAM)"
	case Class2:
		return "C2 (~50KB RAM)"
	default:
		return "unconstrained"
	}
}

// Profile is one row of Table I.
type Profile struct {
	Name       string
	Chipset    string
	CoreHz     float64 // core frequency in Hz
	RAMBytes   int64   // 0 = not applicable / unknown
	FlashBytes int64
	Power      PowerSource
	// BusWidth is the datapath width in bits (8, 16, 32, 64), which scales
	// software cipher cost relative to the 8/16-bit calibration point.
	BusWidth int
	// Kind tags the profile for testbed construction ("rfid", "sensor",
	// "hub", "camera", "appliance", "wearable", "phone").
	Kind string
}

// DeviceClass derives the RFC 7228 class from the profile's RAM. Profiles
// with unlisted RAM (Table I prints "NA" for gateway/camera-class devices)
// are treated as unconstrained — their other specs put them far above the
// constrained classes.
func (p Profile) DeviceClass() Class {
	switch {
	case p.RAMBytes == 0:
		return ClassUnconstrained
	case p.RAMBytes < 4<<10:
		return Class0
	case p.RAMBytes < 32<<10:
		return Class1
	case p.RAMBytes < 1<<20:
		return Class2
	default:
		return ClassUnconstrained
	}
}

// CipherCost describes the modeled cost of running a cipher on a profile.
type CipherCost struct {
	// SecondsPerKB is wall time to process 1024 bytes.
	SecondsPerKB float64
	// MicroJoulePerKB is the energy draw per 1024 bytes for battery
	// accounting (0 for AC/passive).
	MicroJoulePerKB float64
	// Fits reports whether the working RAM of the cipher fits the device.
	Fits bool
}

// CostModel maps cipher software cost onto a hardware profile. It is the
// substitution for the paper's real Table I hardware (see DESIGN.md):
// cyclesPerByte is calibrated for an 8/16-bit MCU class core; wider
// datapaths divide the cycle count, and clock frequency converts cycles to
// time. Energy uses a canonical 1 nJ/cycle MCU draw.
func CostModel(p Profile, cyclesPerByte float64, ramBytes int) CipherCost {
	if p.CoreHz <= 0 {
		return CipherCost{SecondsPerKB: math.Inf(1), Fits: false}
	}
	widthScale := 1.0
	if p.BusWidth >= 32 {
		widthScale = 0.25
	} else if p.BusWidth >= 16 {
		widthScale = 0.5
	}
	cycles := cyclesPerByte * widthScale * 1024
	sec := cycles / p.CoreHz
	var uj float64
	if p.Power == PowerBattery {
		uj = cycles * 1e-3 // 1 nJ/cycle => 1e-3 uJ/cycle
	}
	fits := p.RAMBytes == 0 || int64(ramBytes) <= p.RAMBytes/4 // leave 3/4 for the application
	return CipherCost{SecondsPerKB: sec, MicroJoulePerKB: uj, Fits: fits}
}

// Table1 returns the 20 rows of the paper's Table I.
func Table1() []Profile { return append([]Profile(nil), table1[:]...) }

const (
	kb = 1 << 10
	mb = 1 << 20
	gb = 1 << 30
)

// table1 holds the rows Table1 copies out; ProfileByName reads it in place.
var table1 = [...]Profile{
	{Name: "HID Glass Tag Ultra (RFID)", Chipset: "EM 4305", CoreHz: 134.2e3, RAMBytes: 512 / 8, FlashBytes: 0, Power: PowerPassive, BusWidth: 8, Kind: "rfid"},
	{Name: "HID Piccolino Tag (RFID)", Chipset: "I-Code SLIx, SLIx-S", CoreHz: 13.56e6, RAMBytes: 2048 / 8, FlashBytes: 0, Power: PowerPassive, BusWidth: 8, Kind: "rfid"},
	{Name: "Sensor Devices", Chipset: "Microcontroller", CoreHz: 16e6, RAMBytes: 8 * kb, FlashBytes: 64 * kb, Power: PowerBattery, BusWidth: 16, Kind: "sensor"},
	{Name: "Google Chromecast", Chipset: "ARM Cortex-A7", CoreHz: 1.2e9, RAMBytes: 512 * mb, FlashBytes: 256 * mb, Power: PowerUnknown, BusWidth: 32, Kind: "appliance"},
	{Name: "NETGEAR Router", Chipset: "Broadcom BCM4709A", CoreHz: 1.0e9, RAMBytes: 256 * mb, FlashBytes: 128 * kb, Power: PowerAC, BusWidth: 32, Kind: "hub"},
	{Name: "Gateway WISE-3310", Chipset: "ARM Cortex-A9", CoreHz: 1.0e9, RAMBytes: 0, FlashBytes: 4 * gb, Power: PowerAC, BusWidth: 32, Kind: "hub"},
	{Name: "REX2 Smart Meter", Chipset: "Teridian 71M6531F SoC", CoreHz: 10e6, RAMBytes: 4 * kb, FlashBytes: 256 * kb, Power: PowerBattery, BusWidth: 8, Kind: "sensor"},
	{Name: "Philips Hue Lightbulb", Chipset: "TI CC2530 SoC", CoreHz: 32e6, RAMBytes: 8 * kb, FlashBytes: 256 * kb, Power: PowerBattery, BusWidth: 8, Kind: "appliance"},
	{Name: "Nest Smoke Detector", Chipset: "ARM Cortex-M0", CoreHz: 48e6, RAMBytes: 16 * kb, FlashBytes: 128 * kb, Power: PowerBattery, BusWidth: 32, Kind: "sensor"},
	{Name: "Nest Learning Thermostat", Chipset: "ARM Cortex-A8", CoreHz: 800e6, RAMBytes: 512 * mb, FlashBytes: 2 * gb, Power: PowerBattery, BusWidth: 32, Kind: "appliance"},
	{Name: "Samsung Smart Cam", Chipset: "GM812x SoC", CoreHz: 540e6, RAMBytes: 0, FlashBytes: 64 * gb, Power: PowerAC, BusWidth: 32, Kind: "camera"},
	{Name: "Samsung Smart TV", Chipset: "ARM-based Exynos SoC", CoreHz: 1.3e9, RAMBytes: 1 * gb, FlashBytes: 0, Power: PowerAC, BusWidth: 32, Kind: "appliance"},
	{Name: "OORT Bluetooth Smart Controller", Chipset: "ARM Cortex-M0", CoreHz: 50e6, RAMBytes: 32 * kb, FlashBytes: 256 * kb, Power: PowerBattery, BusWidth: 32, Kind: "hub"},
	{Name: "Dacor Android Oven", Chipset: "PowerVR SGX 540 graphics", CoreHz: 1e9, RAMBytes: 512 * mb, FlashBytes: 0, Power: PowerAC, BusWidth: 32, Kind: "appliance"},
	{Name: "Fitbit Smart Wrist Band Flex", Chipset: "ARM Cortex-M3", CoreHz: 32e6, RAMBytes: 16 * kb, FlashBytes: 128 * kb, Power: PowerBattery, BusWidth: 32, Kind: "wearable"},
	{Name: "LG Watch Urbane 2nd Edition", Chipset: "Snapdragon 400 chipset", CoreHz: 1.2e9, RAMBytes: 768 * mb, FlashBytes: 4 * gb, Power: PowerBattery, BusWidth: 32, Kind: "wearable"},
	{Name: "Samsung Watch Gear S2", Chipset: "MSM8x26", CoreHz: 1.2e9, RAMBytes: 512 * mb, FlashBytes: 4 * gb, Power: PowerBattery, BusWidth: 32, Kind: "wearable"},
	{Name: "Apple Watch", Chipset: "S1", CoreHz: 520e6, RAMBytes: 512 * mb, FlashBytes: 8 * gb, Power: PowerBattery, BusWidth: 32, Kind: "wearable"},
	{Name: "iPhone 6s Plus", Chipset: "A9/64-bit/M9 coprocessor", CoreHz: 1.85e9, RAMBytes: 2 * gb, FlashBytes: 128 * gb, Power: PowerBattery, BusWidth: 64, Kind: "phone"},
	{Name: "12.9-inch iPad Pro", Chipset: "A9X/64-bit/M9 coprocessor", CoreHz: 1.85e9, RAMBytes: 4 * gb, FlashBytes: 256 * gb, Power: PowerBattery, BusWidth: 64, Kind: "phone"},
}

// ProfileByName finds a Table I row by its printed name.
func ProfileByName(name string) (Profile, error) {
	for i := range table1 {
		if table1[i].Name == name {
			return table1[i], nil
		}
	}
	return Profile{}, fmt.Errorf("device: no Table I profile named %q", name)
}
