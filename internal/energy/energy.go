// Package energy models node power consumption from radio-state
// occupancy. The paper's motivation is battery-powered IoT nodes, so the
// evaluation must answer "what does meshing cost in battery life": every
// forwarded frame and every hour spent listening for neighbors' traffic
// draws current. The model uses the SX1276 datasheet's typical draws plus
// an ESP32-class MCU floor and integrates state residency into charge
// (mAh) and battery-life estimates.
package energy

import (
	"fmt"
	"time"
)

// Profile holds current draws in milliamps per radio state.
type Profile struct {
	// TxMA is the transmit draw. SX1276 at +13 dBm (RFO) draws ≈29 mA;
	// with the ESP32 awake the node totals ≈120 mA.
	TxMA float64
	// RxMA is the receive/listen draw (SX1276 ≈11 mA plus MCU floor).
	RxMA float64
	// SleepMA is the deep-sleep draw with the radio idle.
	SleepMA float64
	// SupplyVolts is the battery voltage for energy (J) conversions.
	SupplyVolts float64
}

// DefaultProfile returns the TTGO LoRa32-class figures used in the
// reproduction: the demo's hardware keeps the ESP32 and radio awake to
// route for others (no LoRaWAN-style class-A sleep), so the listen draw
// dominates.
func DefaultProfile() Profile {
	return Profile{
		TxMA:        120, // radio TX + MCU
		RxMA:        48,  // radio RX + MCU awake
		SleepMA:     0.8, // deep sleep with RTC
		SupplyVolts: 3.7,
	}
}

// Validate checks the profile.
func (p Profile) Validate() error {
	if p.TxMA <= 0 || p.RxMA <= 0 || p.SleepMA < 0 || p.SupplyVolts <= 0 {
		return fmt.Errorf("energy: profile %+v has non-positive draws", p)
	}
	return nil
}

// Usage is a node's radio-state residency over an observation window.
type Usage struct {
	// Tx is cumulative transmit airtime.
	Tx time.Duration
	// Sleep is time spent in deep sleep.
	Sleep time.Duration
	// Window is the total observed duration; receive/listen time is
	// Window - Tx - Sleep (the mesh router listens whenever it is not
	// transmitting or sleeping).
	Window time.Duration
}

// Rx returns the derived listen time.
func (u Usage) Rx() time.Duration {
	rx := u.Window - u.Tx - u.Sleep
	if rx < 0 {
		return 0
	}
	return rx
}

// Validate checks internal consistency.
func (u Usage) Validate() error {
	if u.Tx < 0 || u.Sleep < 0 || u.Window <= 0 {
		return fmt.Errorf("energy: usage %+v has non-positive components", u)
	}
	if u.Tx+u.Sleep > u.Window {
		return fmt.Errorf("energy: usage %v tx+sleep exceeds window %v", u.Tx+u.Sleep, u.Window)
	}
	return nil
}

// ChargeMAH returns the charge consumed over the window in milliamp-hours.
func (p Profile) ChargeMAH(u Usage) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if err := u.Validate(); err != nil {
		return 0, err
	}
	hours := func(d time.Duration) float64 { return d.Hours() }
	return p.TxMA*hours(u.Tx) + p.RxMA*hours(u.Rx()) + p.SleepMA*hours(u.Sleep), nil
}

// MeanCurrentMA returns the average draw over the window.
func (p Profile) MeanCurrentMA(u Usage) (float64, error) {
	mah, err := p.ChargeMAH(u)
	if err != nil {
		return 0, err
	}
	return mah / u.Window.Hours(), nil
}

// BatteryLife extrapolates how long a battery of the given capacity lasts
// at the observed duty pattern.
func (p Profile) BatteryLife(u Usage, capacityMAH float64) (time.Duration, error) {
	if capacityMAH <= 0 {
		return 0, fmt.Errorf("energy: capacity %v mAh must be positive", capacityMAH)
	}
	mean, err := p.MeanCurrentMA(u)
	if err != nil {
		return 0, err
	}
	if mean <= 0 {
		return 0, fmt.Errorf("energy: mean current is zero")
	}
	hours := capacityMAH / mean
	return time.Duration(hours * float64(time.Hour)), nil
}
