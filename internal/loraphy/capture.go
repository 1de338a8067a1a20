package loraphy

import "fmt"

// Capture and co-channel rejection model.
//
// When two LoRa transmissions overlap on the same channel, the receiver
// may still decode the stronger one ("capture effect") if it exceeds the
// interferer by a margin that depends on the spreading-factor pair.
// Same-SF transmissions require roughly a 6 dB margin; different SFs are
// quasi-orthogonal and tolerate the interferer being substantially
// *stronger* than the signal. The matrix below follows the co-channel
// rejection measurements popularised by Croce et al., "Impact of LoRa
// Imperfect Orthogonality" (IEEE Comm. Letters 2018), also used by the
// LoRaSim / FLoRa simulators.

// captureThresholdDB[signalSF][interfererSF] is the minimum
// (signal - interferer) power difference in dB for the signal to survive.
// Negative entries mean the interferer may exceed the signal by that
// magnitude and the signal still decodes.
var captureThresholdDB = map[SpreadingFactor]map[SpreadingFactor]float64{
	SF7:  {SF7: 6, SF8: -8, SF9: -9, SF10: -9, SF11: -9, SF12: -9},
	SF8:  {SF7: -11, SF8: 6, SF9: -11, SF10: -12, SF11: -13, SF12: -13},
	SF9:  {SF7: -15, SF8: -13, SF9: 6, SF10: -13, SF11: -14, SF12: -15},
	SF10: {SF7: -19, SF8: -18, SF9: -17, SF10: 6, SF11: -17, SF12: -18},
	SF11: {SF7: -22, SF8: -22, SF9: -21, SF10: -20, SF11: 6, SF12: -20},
	SF12: {SF7: -25, SF8: -25, SF9: -25, SF10: -24, SF11: -23, SF12: 6},
}

// CaptureThresholdDB returns the minimum power margin (dB) by which a
// signal at signalSF must exceed an interferer at interfererSF to survive
// the overlap.
func CaptureThresholdDB(signalSF, interfererSF SpreadingFactor) (float64, error) {
	row, ok := captureThresholdDB[signalSF]
	if !ok {
		return 0, fmt.Errorf("loraphy: no capture row for signal %v", signalSF)
	}
	th, ok := row[interfererSF]
	if !ok {
		return 0, fmt.Errorf("loraphy: no capture threshold for %v vs %v", signalSF, interfererSF)
	}
	return th, nil
}

// Survives reports whether a signal with power signalDBm at signalSF
// decodes despite an overlapping interferer with power interfererDBm at
// interfererSF on the same channel.
func Survives(signalSF SpreadingFactor, signalDBm float64, interfererSF SpreadingFactor, interfererDBm float64) (bool, error) {
	th, err := CaptureThresholdDB(signalSF, interfererSF)
	if err != nil {
		return false, err
	}
	return signalDBm-interfererDBm >= th, nil
}
