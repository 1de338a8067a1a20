package loraphy

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSymbolTime(t *testing.T) {
	tests := []struct {
		sf   SpreadingFactor
		bw   Bandwidth
		want time.Duration
	}{
		{SF7, BW125, 1024 * time.Microsecond},
		{SF8, BW125, 2048 * time.Microsecond},
		{SF12, BW125, 32768 * time.Microsecond},
		{SF7, BW250, 512 * time.Microsecond},
		{SF7, BW500, 256 * time.Microsecond},
	}
	for _, tt := range tests {
		p := DefaultParams()
		p.SpreadingFactor = tt.sf
		p.Bandwidth = tt.bw
		if got := p.SymbolTime(); got != tt.want {
			t.Errorf("%v/%v symbol time = %v, want %v", tt.sf, tt.bw, got, tt.want)
		}
	}
}

func TestLowDataRateAutomaticRule(t *testing.T) {
	p := DefaultParams()
	for _, sf := range AllSpreadingFactors() {
		p.SpreadingFactor = sf
		want := sf >= SF11 // at BW125, symbol time exceeds 16 ms from SF11
		if got := p.LowDataRateEnabled(); got != want {
			t.Errorf("%v LowDataRateEnabled = %v, want %v", sf, got, want)
		}
	}
	p.SpreadingFactor = SF7
	p.ForceLowDataRate = true
	if !p.LowDataRateEnabled() {
		t.Error("ForceLowDataRate not honoured")
	}
}

// TestAirtimeKnownValues cross-checks the Semtech formula against values
// produced by the widely used airtime calculators (SX1276 datasheet
// formula, 8-symbol preamble, explicit header, CRC on).
func TestAirtimeKnownValues(t *testing.T) {
	tests := []struct {
		name    string
		sf      SpreadingFactor
		bw      Bandwidth
		cr      CodingRate
		payload int
		wantMS  float64
	}{
		// Canonical reference points for LoRaWAN-style frames.
		{"SF7/125 13B", SF7, BW125, CR4_5, 13, 46.34},
		{"SF7/125 51B", SF7, BW125, CR4_5, 51, 102.66},
		{"SF9/125 13B", SF9, BW125, CR4_5, 13, 164.86},
		{"SF12/125 13B", SF12, BW125, CR4_5, 13, 1155.07},
		{"SF7/125 222B", SF7, BW125, CR4_5, 222, 348.42},
		{"SF7/250 13B", SF7, BW250, CR4_5, 13, 23.17},
	}
	for _, tt := range tests {
		p := DefaultParams()
		p.SpreadingFactor = tt.sf
		p.Bandwidth = tt.bw
		p.CodingRate = tt.cr
		got, err := p.Airtime(tt.payload)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		gotMS := float64(got) / float64(time.Millisecond)
		if math.Abs(gotMS-tt.wantMS) > 0.5 {
			t.Errorf("%s airtime = %.2f ms, want %.2f ms", tt.name, gotMS, tt.wantMS)
		}
	}
}

func TestAirtimeMonotonicInPayload(t *testing.T) {
	p := DefaultParams()
	prev := time.Duration(0)
	for n := 0; n <= MaxPHYPayload; n++ {
		d, err := p.Airtime(n)
		if err != nil {
			t.Fatal(err)
		}
		if d < prev {
			t.Fatalf("airtime(%d) = %v < airtime(%d) = %v", n, d, n-1, prev)
		}
		prev = d
	}
}

func TestAirtimeRejectsBadInput(t *testing.T) {
	p := DefaultParams()
	if _, err := p.Airtime(-1); err == nil {
		t.Error("negative payload: want error")
	}
	if _, err := p.Airtime(MaxPHYPayload + 1); err == nil {
		t.Error("oversize payload: want error")
	}
	p.SpreadingFactor = 42
	if _, err := p.Airtime(10); err == nil {
		t.Error("invalid SF: want error")
	}
}

// TestAirtimePropertySFDoubling checks the structural property that one SF
// step roughly doubles symbol time, so airtime grows monotonically with SF
// for a fixed payload.
func TestAirtimePropertySFDoubling(t *testing.T) {
	f := func(raw uint8) bool {
		payload := int(raw) % (MaxPHYPayload + 1)
		prev := time.Duration(0)
		for _, sf := range AllSpreadingFactors() {
			p := DefaultParams()
			p.SpreadingFactor = sf
			d, err := p.Airtime(payload)
			if err != nil || d <= prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSensitivityLadder(t *testing.T) {
	// The classic BW125 sensitivity ladder from the SX1276 datasheet
	// derivation: noise floor ≈ -117.1 dBm; SF7 ≈ -124.6 ... SF12 ≈ -137.1.
	p := DefaultParams()
	wants := map[SpreadingFactor]float64{
		SF7: -124.6, SF8: -127.1, SF9: -129.6, SF10: -132.1, SF11: -134.6, SF12: -137.1,
	}
	for sf, want := range wants {
		p.SpreadingFactor = sf
		got, err := p.SensitivityDBm()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.2 {
			t.Errorf("%v sensitivity = %.2f, want %.2f", sf, got, want)
		}
	}
}

func TestReceiveThresholds(t *testing.T) {
	p := DefaultParams()
	lb := LinkBudget{TxPowerDBm: 14}
	sens, err := p.SensitivityDBm()
	if err != nil {
		t.Fatal(err)
	}
	// Just above sensitivity: decodable.
	r, err := Receive(p, lb, lb.TxPowerDBm-sens-0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.AboveSensitivity {
		t.Errorf("reception at sensitivity+0.1dB should decode: %+v", r)
	}
	// Just below: not decodable.
	r, err = Receive(p, lb, lb.TxPowerDBm-sens+0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r.AboveSensitivity {
		t.Errorf("reception at sensitivity-0.1dB should fail: %+v", r)
	}
}

func TestFreeSpacePathLoss(t *testing.T) {
	// Friis at 868 MHz, 1 km is ≈ 91.2 dB.
	got := freeSpaceDB(1000, 868e6)
	if math.Abs(got-91.2) > 0.3 {
		t.Errorf("free-space 1km@868MHz = %.2f dB, want ≈91.2", got)
	}
	// Clamps below 1 m.
	if a, b := freeSpaceDB(0, 868e6), freeSpaceDB(1, 868e6); a != b {
		t.Errorf("free-space should clamp d<1m: %v vs %v", a, b)
	}
}

func TestLogDistanceReducesToFreeSpaceAtReference(t *testing.T) {
	m := DefaultLogDistance()
	fs := freeSpaceDB(1, 868e6)
	if got := m.PathLossDB(1, 868e6); math.Abs(got-fs) > 1e-9 {
		t.Errorf("log-distance at d0 = %v, want free-space %v", got, fs)
	}
	// 10x distance adds 10*n dB.
	d1, d10 := m.PathLossDB(10, 868e6), m.PathLossDB(100, 868e6)
	if math.Abs((d10-d1)-27.0) > 1e-9 {
		t.Errorf("decade slope = %v dB, want 27 (n=2.7)", d10-d1)
	}
}

func TestShadowedModelDeterministicAndSymmetric(t *testing.T) {
	m := ShadowedModel{Base: DefaultLogDistance(), SigmaDB: 8, Seed: 7}
	a := m.LinkPathLossDB(1, 2, 500, 868e6)
	b := m.LinkPathLossDB(1, 2, 500, 868e6)
	if a != b {
		t.Errorf("shadowing not deterministic: %v vs %v", a, b)
	}
	if c := m.LinkPathLossDB(2, 1, 500, 868e6); c != a {
		t.Errorf("shadowing not symmetric: %v vs %v", c, a)
	}
	if d := m.LinkPathLossDB(1, 3, 500, 868e6); d == a {
		t.Errorf("different links got identical shadowing %v", d)
	}
	m2 := m
	m2.Seed = 8
	if e := m2.LinkPathLossDB(1, 2, 500, 868e6); e == a {
		t.Errorf("different seeds got identical shadowing %v", e)
	}
}

func TestShadowedModelZeroSigmaIsBase(t *testing.T) {
	base := DefaultLogDistance()
	m := ShadowedModel{Base: base}
	if got, want := m.LinkPathLossDB(1, 2, 500, 868e6), base.PathLossDB(500, 868e6); got != want {
		t.Errorf("σ=0 shadowed loss = %v, want base %v", got, want)
	}
}

// TestShadowingIsRoughlyStandardNormal samples many links and checks mean
// and variance of the shadowing term.
func TestShadowingIsRoughlyStandardNormal(t *testing.T) {
	m := ShadowedModel{Base: DefaultLogDistance(), SigmaDB: 1, Seed: 99}
	base := m.Base.PathLossDB(100, 868e6)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		s := m.LinkPathLossDB(uint64(i), uint64(i)+100000, 100, 868e6) - base
		sum += s
		sumSq += s * s
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("shadowing mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("shadowing variance = %v, want ≈1", variance)
	}
}

func TestCaptureSameSF(t *testing.T) {
	ok, err := Survives(SF7, -100, SF7, -107)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("7 dB margin at same SF should capture")
	}
	ok, err = Survives(SF7, -100, SF7, -104)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("4 dB margin at same SF should collide")
	}
}

func TestCaptureInterSFQuasiOrthogonal(t *testing.T) {
	// SF7 signal survives an SF12 interferer 9 dB stronger but not 10 dB.
	ok, err := Survives(SF7, -100, SF12, -91)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("SF7 vs SF12 at -9 dB margin should survive")
	}
	ok, err = Survives(SF7, -100, SF12, -90)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("SF7 vs SF12 at -10 dB margin should fail")
	}
}

func TestCaptureMatrixComplete(t *testing.T) {
	for _, a := range AllSpreadingFactors() {
		for _, b := range AllSpreadingFactors() {
			th, err := CaptureThresholdDB(a, b)
			if err != nil {
				t.Fatalf("missing capture entry %v vs %v", a, b)
			}
			if a == b && th != 6 {
				t.Errorf("co-SF threshold %v = %v, want 6", a, th)
			}
			if a != b && th >= 0 {
				t.Errorf("inter-SF threshold %v vs %v = %v, want negative", a, b, th)
			}
		}
	}
}

func TestMaxRange(t *testing.T) {
	p := DefaultParams()
	lb := DefaultLinkBudget()
	model := DefaultLogDistance()
	r7, err := MaxRangeMeters(p, lb, model, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	p.SpreadingFactor = SF12
	r12, err := MaxRangeMeters(p, lb, model, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	if r7 <= 0 || r12 <= r7 {
		t.Errorf("ranges SF7=%v SF12=%v, want 0 < SF7 < SF12", r7, r12)
	}
	// SF12 has 12.5 dB more sensitivity; at n=2.7 that is 10^(12.5/27) ≈ 2.9x range.
	ratio := r12 / r7
	if ratio < 2.5 || ratio > 3.3 {
		t.Errorf("range ratio SF12/SF7 = %.2f, want ≈2.9", ratio)
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := good
	bad.PreambleSymbols = 2
	if err := bad.Validate(); err == nil {
		t.Error("preamble=2: want error")
	}
	bad = good
	bad.FrequencyHz = 0
	if err := bad.Validate(); err == nil {
		t.Error("frequency=0: want error")
	}
	bad = good
	bad.CodingRate = 9
	if err := bad.Validate(); err == nil {
		t.Error("CR=9: want error")
	}
}

func TestEnumStrings(t *testing.T) {
	if got := SF7.String(); got != "SF7" {
		t.Errorf("SF7.String() = %q", got)
	}
	if got := BW125.String(); got != "BW125" {
		t.Errorf("BW125.String() = %q", got)
	}
	if got := CR4_5.String(); got != "CR4/5" {
		t.Errorf("CR4_5.String() = %q", got)
	}
	if got := DefaultParams().String(); got != "SF7/BW125/CR4/5@868.1MHz" {
		t.Errorf("Params.String() = %q", got)
	}
}

func BenchmarkAirtime(b *testing.B) {
	p := DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Airtime(i % MaxPHYPayload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShadowedPathLoss(b *testing.B) {
	m := ShadowedModel{Base: DefaultLogDistance(), SigmaDB: 8, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.LinkPathLossDB(uint64(i), uint64(i+1), 500, 868e6)
	}
}

// TestAirtimePropertyCodingRate: airtime is nondecreasing in coding
// overhead for any payload.
func TestAirtimePropertyCodingRate(t *testing.T) {
	f := func(raw uint8) bool {
		payload := int(raw) % (MaxPHYPayload + 1)
		prev := time.Duration(0)
		for _, cr := range []CodingRate{CR4_5, CR4_6, CR4_7, CR4_8} {
			p := DefaultParams()
			p.CodingRate = cr
			d, err := p.Airtime(payload)
			if err != nil || d < prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSurvivesAntisymmetry: at equal SF, two frames cannot both capture
// each other (one wins or both lose).
func TestSurvivesAntisymmetry(t *testing.T) {
	f := func(p1Raw, p2Raw uint8) bool {
		p1 := -130 + float64(p1Raw)/4
		p2 := -130 + float64(p2Raw)/4
		a, err1 := Survives(SF7, p1, SF7, p2)
		b, err2 := Survives(SF7, p2, SF7, p1)
		if err1 != nil || err2 != nil {
			return false
		}
		return !(a && b) // both surviving a same-SF overlap is impossible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFloorTablesMatchExpressions pins the precomputed noise and SNR
// floors to the expression and datasheet map they replaced, bit for bit,
// including the out-of-range values the receive path can be handed.
func TestFloorTablesMatchExpressions(t *testing.T) {
	for bw := 0; bw < 256; bw++ {
		p := Params{Bandwidth: Bandwidth(bw)}
		want := ThermalNoiseDensityDBm + 10*math.Log10(Bandwidth(bw).Hz()) + ReceiverNoiseFigureDB
		if got := p.NoiseFloorDBm(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("NoiseFloorDBm(%v) = %v, want %v", Bandwidth(bw), got, want)
		}
	}
	datasheet := map[SpreadingFactor]float64{SF7: -7.5, SF8: -10, SF9: -12.5, SF10: -15, SF11: -17.5, SF12: -20}
	for sf := 0; sf < 256; sf++ {
		want, ok := datasheet[SpreadingFactor(sf)]
		got, err := SpreadingFactor(sf).SNRFloorDB()
		if (err == nil) != ok || got != want {
			t.Errorf("SNRFloorDB(%v) = %v, %v; want %v, ok=%v", SpreadingFactor(sf), got, err, want, ok)
		}
	}
}
