package modem

import "testing"

func TestFSKMuchSlowerThanOFDM(t *testing.T) {
	// The related-work comparison (§2): the GGwave-class FSK baseline is
	// orders of magnitude slower than the paper's OFDM profile.
	f := NewFSK128()
	m, _ := NewOFDM(Sonic92())
	n := 500
	fskTime := f.BurstDuration(n)
	ofdmTime := m.BurstDuration(n)
	if fskTime < 10*ofdmTime {
		t.Errorf("FSK %gs vs OFDM %gs: expected >=10x gap", fskTime, ofdmTime)
	}
	if f.BitRate != 128 {
		t.Errorf("FSK rate = %g", f.BitRate)
	}
}
