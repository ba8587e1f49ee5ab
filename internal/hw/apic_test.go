package hw

import "testing"

func TestAPICRaiseTake(t *testing.T) {
	a := newAPIC(0)
	if _, _, ok := a.takeIntr(); ok {
		t.Fatal("empty APIC delivered")
	}
	a.Raise(0x41, false)
	if !a.HasPending() {
		t.Fatal("no pending after raise")
	}
	v, ext, ok := a.takeIntr()
	if !ok || v != 0x41 || ext {
		t.Fatalf("take = %#x, %v, %v", v, ext, ok)
	}
	if a.HasPending() {
		t.Fatal("pending after drain")
	}
}

func TestAPICExternalFlagPerVector(t *testing.T) {
	a := newAPIC(0)
	a.Raise(0x20, true)
	a.Raise(0x30, false)
	v1, ext1, _ := a.takeIntr() // higher vector first
	v2, ext2, _ := a.takeIntr()
	if v1 != 0x30 || ext1 {
		t.Errorf("first = %#x ext=%v", v1, ext1)
	}
	if v2 != 0x20 || !ext2 {
		t.Errorf("second = %#x ext=%v", v2, ext2)
	}
}

func TestAPICSameVectorCoalesces(t *testing.T) {
	a := newAPIC(0)
	for i := 0; i < 5; i++ {
		a.Raise(0x55, false)
	}
	count := 0
	for {
		if _, _, ok := a.takeIntr(); !ok {
			break
		}
		count++
	}
	if count != 1 {
		t.Errorf("delivered %d, want 1 (IRR is a bitmap)", count)
	}
}

func TestAPICNMICounting(t *testing.T) {
	a := newAPIC(0)
	a.RaiseNMI()
	a.RaiseNMI()
	if !a.takeNMI() || !a.takeNMI() {
		t.Fatal("NMIs lost")
	}
	if a.takeNMI() {
		t.Fatal("phantom NMI")
	}
	if a.HasPending() {
		t.Fatal("pending after NMIs drained")
	}
}

func TestAPICHighestVectorFirst(t *testing.T) {
	a := newAPIC(0)
	vecs := []uint8{0x21, 0xEF, 0x40, 0x3, 0x80}
	for _, v := range vecs {
		a.Raise(v, false)
	}
	want := []uint8{0xEF, 0x80, 0x40, 0x21, 0x3}
	for i, w := range want {
		v, _, ok := a.takeIntr()
		if !ok || v != w {
			t.Fatalf("delivery %d = %#x, want %#x", i, v, w)
		}
	}
}

func TestExtentHelpersHW(t *testing.T) {
	e := Extent{Start: 0x1000, Size: 0x1000, Node: 1}
	if e.End() != 0x2000 {
		t.Error("End")
	}
	if !e.Contains(0x1000) || !e.Contains(0x1FFF) || e.Contains(0x2000) {
		t.Error("Contains")
	}
	if !e.ContainsRange(0x1800, 0x800) || e.ContainsRange(0x1800, 0x801) {
		t.Error("ContainsRange")
	}
	if e.ContainsRange(0x1800, ^uint64(0)) {
		t.Error("ContainsRange wrap")
	}
	o := Extent{Start: 0x1800, Size: 0x1000}
	if !e.Overlaps(o) || !o.Overlaps(e) {
		t.Error("Overlaps")
	}
	if e.Overlaps(Extent{Start: 0x2000, Size: 0x1000}) {
		t.Error("adjacent extents overlap")
	}
	if TotalSize([]Extent{e, o}) != 0x2000 {
		t.Error("TotalSize")
	}
	if e.String() == "" {
		t.Error("String")
	}
}

func TestCostsRemoteScale(t *testing.T) {
	cs := DefaultCosts()
	if got := cs.remoteScale(100); got != 170 {
		t.Errorf("remoteScale(100) = %d", got)
	}
	var zero Costs
	if zero.remoteScale(100) != 100 {
		t.Error("zero-denominator scale changed value")
	}
}

func TestFaultKindStrings(t *testing.T) {
	kinds := []FaultKind{FaultBusError, FaultEPTViolation, FaultGP,
		FaultDoubleFault, FaultTripleFault, FaultMachineCrashed, FaultEnclaveKilled}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d name %q", k, s)
		}
		seen[s] = true
	}
	f := &Fault{Kind: FaultEPTViolation, Addr: 0x123, Write: true, CPU: 2, Msg: "detail"}
	msg := f.Error()
	for _, want := range []string{"ept-violation", "0x123", "write", "detail"} {
		if !contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
