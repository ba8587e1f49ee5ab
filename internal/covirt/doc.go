// Package covirt implements the paper's contribution: a lightweight fault
// isolation and resource protection layer for co-kernels, built from two
// cooperating components.
//
// The per-core hypervisor (Hypervisor) is deliberately minimal: it loads a
// pre-built VMCS, launches the co-kernel transparently (the co-kernel sees
// exactly the hardware state the Pisces trampoline would have handed it),
// and thereafter only runs on VM exits — terminating the enclave on access
// violations, filtering IPIs against a whitelist, emulating the handful of
// unconditionally-trapping instructions, and servicing the controller's
// command queue when an NMI doorbell rings. It has a fixed 8 KiB stack, no
// dynamic allocation after setup, and each instance manages a single CPU
// with no knowledge of its siblings.
//
// The controller module (Controller) lives in the management plane: it
// registers with the Pisces framework's boot path (boot interposition and
// the new Covirt ioctls) and subscribes to the node's resource-management
// event bus (pisces.Bus), on which the framework and the Hobbes master
// control process publish. Resource events are translated into direct
// edits of the enclave's virtualization data structures — EPT mappings,
// MSR/IO bitmaps, the IPI whitelist — asynchronously with respect to the
// enclave's execution. Only changes that may be cached by an enclave CPU
// (unmapped translations in its TLB) require synchronizing with the
// hypervisor, via fixed-size commands in a per-core queue signalled by
// NMI. The queue, like the EPT and the VMCS, is hypervisor state that no
// guest can address.
//
// Ordering rules enforced (paper §IV):
//
//   - map-before-notify: new memory (assignment or XEMEM attach) is mapped
//     into the EPT before the co-kernel is told it exists;
//   - unmap-after-release: memory leaves the EPT only after the co-kernel
//     has acknowledged relinquishing it, and the completion is reported to
//     the management layer only after every enclave CPU has flushed its
//     TLB.
//
// Protection features are modular (Features): memory, IPI (full APIC
// virtualization or posted-interrupt mode), MSR, I/O port, and abort
// handling can each be enabled independently per enclave at boot.
package covirt
