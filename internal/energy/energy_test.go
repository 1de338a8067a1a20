package energy

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestUsageRxDerivation(t *testing.T) {
	u := Usage{Tx: 10 * time.Minute, Sleep: 20 * time.Minute, Window: time.Hour}
	if got := u.Rx(); got != 30*time.Minute {
		t.Errorf("Rx = %v, want 30m", got)
	}
	over := Usage{Tx: 2 * time.Hour, Window: time.Hour}
	if got := over.Rx(); got != 0 {
		t.Errorf("overfull Rx = %v, want clamped 0", got)
	}
}

func TestChargeMAH(t *testing.T) {
	p := Profile{TxMA: 100, RxMA: 10, SleepMA: 1, SupplyVolts: 3.7}
	u := Usage{Tx: 30 * time.Minute, Sleep: 30 * time.Minute, Window: 2 * time.Hour}
	// 0.5h*100 + 1h*10 + 0.5h*1 = 60.5 mAh
	got, err := p.ChargeMAH(u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-60.5) > 1e-9 {
		t.Errorf("charge = %v mAh, want 60.5", got)
	}
}

func TestMeanCurrentAndBatteryLife(t *testing.T) {
	p := Profile{TxMA: 100, RxMA: 10, SleepMA: 1, SupplyVolts: 3.7}
	u := Usage{Window: time.Hour} // pure listening
	mean, err := p.MeanCurrentMA(u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-10) > 1e-9 {
		t.Errorf("mean = %v mA, want 10", mean)
	}
	life, err := p.BatteryLife(u, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if want := 200 * time.Hour; life != want {
		t.Errorf("life = %v, want %v", life, want)
	}
}

func TestValidation(t *testing.T) {
	good := DefaultProfile()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.TxMA = 0
	if _, err := bad.ChargeMAH(Usage{Window: time.Hour}); err == nil {
		t.Error("zero TxMA: want error")
	}
	if _, err := good.ChargeMAH(Usage{Window: 0}); err == nil {
		t.Error("zero window: want error")
	}
	if _, err := good.ChargeMAH(Usage{Tx: 2 * time.Hour, Window: time.Hour}); err == nil {
		t.Error("tx > window: want error")
	}
	if _, err := good.BatteryLife(Usage{Window: time.Hour}, 0); err == nil {
		t.Error("zero capacity: want error")
	}
}

// TestPropertySleepReducesCharge: for any valid split, moving listen time
// into sleep never increases consumption (SleepMA < RxMA in every sane
// profile).
func TestPropertySleepReducesCharge(t *testing.T) {
	p := DefaultProfile()
	f := func(txMin, sleepMin uint8) bool {
		window := 10 * time.Hour
		tx := time.Duration(txMin) * time.Minute
		sleep := time.Duration(sleepMin) * time.Minute
		if tx+sleep > window {
			return true // skip invalid splits
		}
		base, err := p.ChargeMAH(Usage{Tx: tx, Sleep: sleep, Window: window})
		if err != nil {
			return false
		}
		moreSleep := sleep + 30*time.Minute
		if tx+moreSleep > window {
			return true
		}
		lower, err := p.ChargeMAH(Usage{Tx: tx, Sleep: moreSleep, Window: window})
		if err != nil {
			return false
		}
		return lower <= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDefaultProfileSanity(t *testing.T) {
	p := DefaultProfile()
	// An always-listening router on a 3000 mAh cell: life should land in
	// the 2-3 day range — the paper's motivation for duty-cycled designs.
	u := Usage{Tx: 36 * time.Second, Window: time.Hour}
	life, err := p.BatteryLife(u, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if life < 36*time.Hour || life > 96*time.Hour {
		t.Errorf("always-on router life = %v, want 1.5-4 days", life)
	}
}
