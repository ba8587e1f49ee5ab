package vmx

import "sync/atomic"

// Controls are the execution-control knobs of a VMCS that Covirt's feature
// configuration maps onto. They correspond to pin-based, primary and
// secondary processor-based VM-execution controls.
type Controls struct {
	// EnableEPT turns on nested paging (memory protection).
	EnableEPT bool
	// VirtualAPIC traps guest ICR writes for IPI filtering. Implies that
	// incoming external interrupts cause exits unless PostedInterrupts is
	// also set.
	VirtualAPIC bool
	// PostedInterrupts enables PIV: incoming IPIs are delivered through
	// the posted-interrupt descriptor without a VM exit. External (device)
	// interrupts still exit, per the architecture.
	PostedInterrupts bool
	// InterceptDF makes double faults exit instead of escalating to a
	// machine-resetting triple fault.
	InterceptDF bool
}

// VMCS is a simulated Virtual Machine Control Structure for one CPU core.
// Covirt's controller module writes the VMCS (and the EPT it points to)
// from the management plane; the per-core hypervisor loads it and launches.
type VMCS struct {
	CPUID int // core this VMCS is bound to

	Controls Controls

	// EPT is the nested page table; nil when EnableEPT is false.
	EPT *EPT
	// MSRBitmap and IOBitmap select trapped MSRs/ports; nil means no traps.
	MSRBitmap *MSRBitmap
	IOBitmap  *IOBitmap
	// PID is the posted-interrupt descriptor used when
	// Controls.PostedInterrupts is set.
	PID *PostedIntDescriptor
	// NotificationVector is the PIV notification vector.
	NotificationVector uint8

	launched atomic.Bool
}

// NewVMCS returns a VMCS for core cpuID with no controls enabled.
func NewVMCS(cpuID int) *VMCS { return &VMCS{CPUID: cpuID} }

// MarkLaunched records the VM-launch; further launches are VM-resume.
func (v *VMCS) MarkLaunched() { v.launched.Store(true) }

// Launched reports whether the guest was launched on this VMCS.
func (v *VMCS) Launched() bool { return v.launched.Load() }

// PostedIntDescriptor simulates the in-memory posted-interrupt descriptor:
// a 256-bit pending-interrupt request bitmap plus the outstanding
// notification bit.
type PostedIntDescriptor struct {
	pir [4]uint64 // atomic access via index math
	on  atomic.Bool
	// PostedCount counts exitless deliveries (diagnostics).
	PostedCount atomic.Uint64
}

// Post sets vector pending and the ON bit, returning true if a notification
// should be sent (ON transitioned 0→1).
func (p *PostedIntDescriptor) Post(vector uint8) bool {
	w := &p.pir[vector/64]
	for {
		old := atomic.LoadUint64(w)
		if atomic.CompareAndSwapUint64(w, old, old|1<<(vector%64)) {
			break
		}
	}
	p.PostedCount.Add(1)
	return p.on.CompareAndSwap(false, true)
}

// Drain atomically clears and returns the pending bitmap, resetting ON.
func (p *PostedIntDescriptor) Drain() [4]uint64 {
	var out [4]uint64
	for i := range p.pir {
		out[i] = atomic.SwapUint64(&p.pir[i], 0)
	}
	p.on.Store(false)
	return out
}

// Pending reports whether any vector is posted.
func (p *PostedIntDescriptor) Pending() bool { return p.on.Load() }
