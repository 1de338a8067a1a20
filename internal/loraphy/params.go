// Package loraphy models the LoRa physical layer of an SX127x-class
// transceiver: modulation parameters, the exact Semtech time-on-air
// formula, receiver sensitivity and SNR demodulation floors, path-loss
// models, and the co-channel capture/rejection rules that govern whether
// overlapping transmissions survive.
//
// The model reproduces the published equations and thresholds from the
// Semtech SX1276/77/78/79 datasheet and the LoRa interference literature,
// because the reproduction's evaluation shapes (airtime overhead, range,
// collision losses) depend on those quantities rather than on the silicon.
package loraphy

import (
	"fmt"
	"time"
)

// SpreadingFactor selects the LoRa spreading factor. Higher factors spread
// each symbol over more chips: longer range, lower bit rate, more airtime.
type SpreadingFactor uint8

// Supported spreading factors. Values match the over-the-air SF so that
// arithmetic on them (2^SF chips per symbol) reads naturally.
const (
	SF7  SpreadingFactor = 7
	SF8  SpreadingFactor = 8
	SF9  SpreadingFactor = 9
	SF10 SpreadingFactor = 10
	SF11 SpreadingFactor = 11
	SF12 SpreadingFactor = 12
)

// Valid reports whether the spreading factor is one this model supports.
func (sf SpreadingFactor) Valid() bool { return sf >= SF7 && sf <= SF12 }

func (sf SpreadingFactor) String() string { return fmt.Sprintf("SF%d", uint8(sf)) }

// AllSpreadingFactors lists the supported factors in ascending order,
// for parameter sweeps.
func AllSpreadingFactors() []SpreadingFactor {
	return []SpreadingFactor{SF7, SF8, SF9, SF10, SF11, SF12}
}

// Bandwidth is the LoRa channel bandwidth.
type Bandwidth uint8

// Supported bandwidths.
const (
	BW125 Bandwidth = iota + 1 // 125 kHz, the EU868 default
	BW250                      // 250 kHz
	BW500                      // 500 kHz
)

// Hz returns the bandwidth in hertz.
func (bw Bandwidth) Hz() float64 {
	switch bw {
	case BW125:
		return 125e3
	case BW250:
		return 250e3
	case BW500:
		return 500e3
	default:
		return 0
	}
}

// Valid reports whether the bandwidth is supported.
func (bw Bandwidth) Valid() bool { return bw >= BW125 && bw <= BW500 }

func (bw Bandwidth) String() string {
	switch bw {
	case BW125:
		return "BW125"
	case BW250:
		return "BW250"
	case BW500:
		return "BW500"
	default:
		return fmt.Sprintf("Bandwidth(%d)", uint8(bw))
	}
}

// CodingRate is the LoRa forward-error-correction rate 4/(4+CR).
type CodingRate uint8

// Supported coding rates.
const (
	CR4_5 CodingRate = iota + 1 // 4/5
	CR4_6                       // 4/6
	CR4_7                       // 4/7
	CR4_8                       // 4/8
)

// Denominator returns the (4+CR) denominator used by the airtime formula;
// e.g. CR4_5 yields 5.
func (cr CodingRate) Denominator() int { return int(cr) + 4 }

// Valid reports whether the coding rate is supported.
func (cr CodingRate) Valid() bool { return cr >= CR4_5 && cr <= CR4_8 }

func (cr CodingRate) String() string {
	if !cr.Valid() {
		return fmt.Sprintf("CodingRate(%d)", uint8(cr))
	}
	return fmt.Sprintf("CR4/%d", cr.Denominator())
}

// MaxPHYPayload is the largest LoRa PHY payload in bytes (SX127x FIFO and
// length-field limit). The mesh layer chunks anything larger.
const MaxPHYPayload = 255

// Params bundles the radio settings that determine airtime and reception.
type Params struct {
	// SpreadingFactor, Bandwidth and CodingRate select the LoRa
	// modulation. The EU868 mesh default is SF7/BW125/CR4_5.
	SpreadingFactor SpreadingFactor
	Bandwidth       Bandwidth
	CodingRate      CodingRate

	// PreambleSymbols is the programmed preamble length, excluding the
	// 4.25 symbols of sync word the radio appends. SX127x default: 8.
	PreambleSymbols int

	// ExplicitHeader selects the standard explicit PHY header (length,
	// CR, CRC flag). LoRaMesher uses explicit headers.
	ExplicitHeader bool

	// CRC enables the 16-bit payload CRC.
	CRC bool

	// LowDataRateOptimize widens symbols for stability; the SX127x
	// mandates it when the symbol time exceeds 16 ms (SF11/SF12 at
	// BW125). ForceLowDataRate overrides the automatic rule for tests.
	ForceLowDataRate bool

	// FrequencyHz is the carrier frequency, used to separate logical
	// channels and for free-space path loss. Default 868.1 MHz.
	FrequencyHz float64
}

// DefaultParams returns the configuration the LoRaMesher prototype ships
// with: SF7, 125 kHz, CR 4/5, 8-symbol preamble, explicit header with CRC,
// on the EU868 868.1 MHz channel.
func DefaultParams() Params {
	return Params{
		SpreadingFactor: SF7,
		Bandwidth:       BW125,
		CodingRate:      CR4_5,
		PreambleSymbols: 8,
		ExplicitHeader:  true,
		CRC:             true,
		FrequencyHz:     868.1e6,
	}
}

// Validate checks the parameter combination.
func (p Params) Validate() error {
	if !p.SpreadingFactor.Valid() {
		return fmt.Errorf("loraphy: invalid spreading factor %d", p.SpreadingFactor)
	}
	if !p.Bandwidth.Valid() {
		return fmt.Errorf("loraphy: invalid bandwidth %d", p.Bandwidth)
	}
	if !p.CodingRate.Valid() {
		return fmt.Errorf("loraphy: invalid coding rate %d", p.CodingRate)
	}
	if p.PreambleSymbols < 6 || p.PreambleSymbols > 65535 {
		return fmt.Errorf("loraphy: preamble %d symbols out of range [6,65535]", p.PreambleSymbols)
	}
	if p.FrequencyHz <= 0 {
		return fmt.Errorf("loraphy: frequency %v Hz must be positive", p.FrequencyHz)
	}
	return nil
}

// SymbolTime returns the duration of one LoRa symbol: 2^SF / BW.
func (p Params) SymbolTime() time.Duration {
	chips := float64(int(1) << p.SpreadingFactor)
	sec := chips / p.Bandwidth.Hz()
	return time.Duration(sec * float64(time.Second))
}

// LowDataRateEnabled reports whether low-data-rate optimization applies,
// either forced or by the SX127x 16 ms symbol-time rule.
func (p Params) LowDataRateEnabled() bool {
	if p.ForceLowDataRate {
		return true
	}
	return p.SymbolTime() > 16*time.Millisecond
}

func (p Params) String() string {
	return fmt.Sprintf("%v/%v/%v@%.1fMHz", p.SpreadingFactor, p.Bandwidth, p.CodingRate, p.FrequencyHz/1e6)
}
