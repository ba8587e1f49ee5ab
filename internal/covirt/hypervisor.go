package covirt

import (
	"fmt"
	"sync/atomic"

	"covirt/internal/hw"
	"covirt/internal/pisces"
	"covirt/internal/trace"
	"covirt/internal/vmx"
)

// HypervisorStackBytes is the fixed, preallocated stack budget of one
// hypervisor context (the paper's "small, 8KB stack ... preallocated by the
// control module"). The simulation tracks a symbolic stack-depth budget so
// tests can assert the minimal-execution-environment property.
const HypervisorStackBytes = 8 << 10

// MSRs the hypervisor permits a co-kernel to write when MSR protection is
// enabled: per-thread bases and timer programming are normal LWK behaviour;
// everything else is a violation.
var allowedGuestMSRWrites = map[uint32]bool{
	hw.MSR_IA32_FS_BASE:      true,
	hw.MSR_IA32_GS_BASE:      true,
	hw.MSR_IA32_TSC_DEADLINE: true,
	hw.MSR_IA32_PAT:          true,
	hw.MSR_IA32_STAR:         true,
	hw.MSR_IA32_LSTAR:        true,
}

// Hypervisor is one per-core Covirt hypervisor context. It implements
// vmx.ExitHandler; it owns no dynamic memory after construction and is
// unaware of the hypervisor instances managing the enclave's other cores.
type Hypervisor struct {
	cpu   *hw.CPU
	vcpu  *vmx.VCPU
	enc   *pisces.Enclave
	feat  Features
	flt   *IPIFilter
	queue *cmdQueue
	io    *IOTable // granted I/O ports (shared, controller-edited, cap-checked)

	// onFault is the termination callback into the controller (which in
	// turn notifies the master control process).
	onFault func(h *Hypervisor, reason string)

	// tracer is the optional flight recorder (nil-safe).
	tracer *trace.Buffer

	terminated atomic.Bool

	// stackDepth tracks the symbolic stack budget during exit handling.
	stackDepth int
}

// Stats returns the per-core exit statistics.
func (h *Hypervisor) Stats() *vmx.ExitStats { return &h.vcpu.Stats }

// CPU returns the core this hypervisor manages.
func (h *Hypervisor) CPU() *hw.CPU { return h.cpu }

// Terminated reports whether this hypervisor has killed its guest.
func (h *Hypervisor) Terminated() bool { return h.terminated.Load() }

// terminate ends the enclave's execution on this core: the guest context is
// killed, the master control process is notified so it can reclaim the
// enclave's resources and inform dependents, and the CPU halts safely.
func (h *Hypervisor) terminate(reason string) {
	if !h.terminated.CompareAndSwap(false, true) {
		return
	}
	h.cpu.Kill()
	if h.onFault != nil {
		h.onFault(h, reason)
	}
}

// push/pop model the fixed stack budget of the minimal execution context.
func (h *Hypervisor) push(frame int) {
	h.stackDepth += frame
	if h.stackDepth > HypervisorStackBytes {
		panic(fmt.Sprintf("covirt: hypervisor stack overflow (%d > %d)", h.stackDepth, HypervisorStackBytes))
	}
}

func (h *Hypervisor) pop(frame int) { h.stackDepth -= frame }

// HandleExit implements vmx.ExitHandler: the entirety of Covirt's runtime
// logic.
func (h *Hypervisor) HandleExit(c *hw.CPU, info *vmx.ExitInfo) vmx.ExitAction {
	h.push(256)
	defer h.pop(256)
	if h.tracer != nil {
		h.tracer.Record(c.ID, c.TSC, "exit:"+info.Reason.String(),
			"gpa=%#x write=%v vec=%#x msr=%#x port=%#x ipi=%d/%#x",
			info.GPA, info.Write, info.Vector, info.MSR, info.Port, info.IPIDest, info.IPIVector)
	}

	switch info.Reason {
	case vmx.ExitEPTViolation:
		// An access outside the enclave's mapped memory is an abort-class
		// error: terminate, notify, halt (paper §IV-B).
		h.terminate(fmt.Sprintf("EPT violation at %#x (write=%v)", info.GPA, info.Write))
		return vmx.ActionKill

	case vmx.ExitICRWrite:
		if !h.feat.IPI {
			return vmx.ActionResume
		}
		if h.flt.Permitted(info.IPIDest, info.IPIVector) {
			return vmx.ActionResume
		}
		// Errant IPIs are simply dropped by the hypervisor.
		return vmx.ActionDrop

	case vmx.ExitMSRWrite:
		if !h.feat.MSR {
			return vmx.ActionResume
		}
		if allowedGuestMSRWrites[info.MSR] {
			return vmx.ActionResume
		}
		h.terminate(fmt.Sprintf("forbidden WRMSR %#x = %#x", info.MSR, info.MSRVal))
		return vmx.ActionKill

	case vmx.ExitMSRRead:
		// Reads are harmless; pass the architectural value through.
		return vmx.ActionResume

	case vmx.ExitIO:
		if !h.feat.IO {
			return vmx.ActionResume
		}
		if h.io != nil && h.io.Allowed(info.Port) {
			return vmx.ActionResume
		}
		h.terminate(fmt.Sprintf("forbidden I/O to port %#x", info.Port))
		return vmx.ActionKill

	case vmx.ExitExternalInterrupt:
		// Re-inject into the guest; cost is carried by the exit itself.
		return vmx.ActionResume

	case vmx.ExitNMI:
		// The controller's doorbell: synchronize local state.
		c.TSC += h.queue.drain(c)
		return vmx.ActionResume

	case vmx.ExitCPUID, vmx.ExitXSETBV:
		// Trap-and-execute with no modification (single-instruction
		// emulation, the simplest case in the paper).
		c.TSC += 150
		return vmx.ActionResume

	case vmx.ExitDoubleFault, vmx.ExitTripleFault:
		if h.feat.Abort {
			h.terminate(fmt.Sprintf("abort exception contained: %s", info.Reason))
			return vmx.ActionKill
		}
		// Without abort handling the exception escalates (node reset).
		return vmx.ActionResume
	}
	return vmx.ActionResume
}

var _ vmx.ExitHandler = (*Hypervisor)(nil)
