package loraphy

import (
	"fmt"
	"math"
)

// Receiver noise characteristics. The thermal noise floor is
// -174 dBm/Hz + 10*log10(BW) + NF, with the SX127x noise figure commonly
// taken as 6 dB.
const (
	// ThermalNoiseDensityDBm is thermal noise power density at 290 K.
	ThermalNoiseDensityDBm = -174.0
	// ReceiverNoiseFigureDB is the assumed SX127x receiver noise figure.
	ReceiverNoiseFigureDB = 6.0
)

// NoiseFloorDBm returns the receiver noise floor for the configured
// bandwidth in dBm.
func (p Params) NoiseFloorDBm() float64 {
	if int(p.Bandwidth) < len(noiseFloorDBm) {
		return noiseFloorDBm[p.Bandwidth]
	}
	return noiseFloor(p.Bandwidth)
}

// noiseFloor is the noise-floor expression itself; noiseFloorDBm holds its
// value per supported bandwidth, so every reception reads the same bits
// without a logarithm.
func noiseFloor(bw Bandwidth) float64 {
	return ThermalNoiseDensityDBm + 10*math.Log10(bw.Hz()) + ReceiverNoiseFigureDB
}

var noiseFloorDBm = func() (t [BW500 + 1]float64) {
	for bw := range t {
		t[bw] = noiseFloor(Bandwidth(bw))
	}
	return t
}()

// snrFloorDB holds, per spreading factor, the minimum SNR (dB) at which
// the demodulator still decodes, per the SX1276 datasheet.
var snrFloorDB = [SF12 + 1]float64{
	SF7:  -7.5,
	SF8:  -10.0,
	SF9:  -12.5,
	SF10: -15.0,
	SF11: -17.5,
	SF12: -20.0,
}

// SNRFloorDB returns the demodulation SNR floor for the spreading factor.
func (sf SpreadingFactor) SNRFloorDB() (float64, error) {
	if !sf.Valid() {
		return 0, fmt.Errorf("loraphy: no SNR floor for %v", sf)
	}
	return snrFloorDB[sf], nil
}

// SensitivityDBm returns the receiver sensitivity for the configured SF and
// bandwidth: noise floor + SNR demodulation floor. At BW125 this reproduces
// the familiar datasheet ladder (≈ -123 dBm at SF7 down to ≈ -136 dBm at
// SF12).
func (p Params) SensitivityDBm() (float64, error) {
	floor, err := p.SpreadingFactor.SNRFloorDB()
	if err != nil {
		return 0, err
	}
	return p.NoiseFloorDBm() + floor, nil
}

// LinkBudget describes one end-to-end radio link configuration.
type LinkBudget struct {
	// TxPowerDBm is the transmit power at the antenna connector.
	// EU868 permits up to 14 dBm ERP on the common sub-bands.
	TxPowerDBm float64
	// TxAntennaGainDBi and RxAntennaGainDBi are antenna gains.
	TxAntennaGainDBi float64
	RxAntennaGainDBi float64
}

// DefaultLinkBudget returns the EU868 defaults used by the reproduction:
// 14 dBm transmit power with 2.15 dBi (dipole) antennas on both ends.
func DefaultLinkBudget() LinkBudget {
	return LinkBudget{TxPowerDBm: 14, TxAntennaGainDBi: 2.15, RxAntennaGainDBi: 2.15}
}

// RSSI returns the received signal strength for a given path loss in dB.
func (lb LinkBudget) RSSI(pathLossDB float64) float64 {
	return lb.TxPowerDBm + lb.TxAntennaGainDBi + lb.RxAntennaGainDBi - pathLossDB
}

// Reception is the PHY-level outcome of receiving one frame over one link.
type Reception struct {
	RSSIDBm float64
	SNRDB   float64
	// AboveSensitivity reports whether the signal clears both the
	// sensitivity and SNR demodulation floors, i.e. is decodable absent
	// interference.
	AboveSensitivity bool
}

// Receive computes the reception outcome for a frame sent with params p
// over a link with the given budget and path loss.
func Receive(p Params, lb LinkBudget, pathLossDB float64) (Reception, error) {
	snrFloor, err := p.SpreadingFactor.SNRFloorDB()
	if err != nil {
		return Reception{}, err
	}
	noise := p.NoiseFloorDBm()
	sens := noise + snrFloor // SensitivityDBm
	rssi := lb.RSSI(pathLossDB)
	snr := rssi - noise
	return Reception{
		RSSIDBm:          rssi,
		SNRDB:            snr,
		AboveSensitivity: rssi >= sens && snr >= snrFloor,
	}, nil
}

// MaxRangeMeters returns the distance at which the link exactly meets the
// sensitivity floor under the given path-loss model, found by bisection.
// It returns 0 if even zero distance is below sensitivity, and cap if the
// link still closes at the cap distance.
func MaxRangeMeters(p Params, lb LinkBudget, model LogDistance, capMeters float64) (float64, error) {
	sens, err := p.SensitivityDBm()
	if err != nil {
		return 0, err
	}
	closes := func(d float64) bool {
		return lb.RSSI(model.PathLossDB(d, p.FrequencyHz)) >= sens
	}
	if !closes(1) {
		return 0, nil
	}
	if closes(capMeters) {
		return capMeters, nil
	}
	lo, hi := 1.0, capMeters
	for i := 0; i < 64 && hi-lo > 0.1; i++ {
		mid := (lo + hi) / 2
		if closes(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
