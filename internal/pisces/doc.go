// Package pisces simulates the Pisces co-kernel framework: dynamic
// partitioning of a node's hardware into enclaves, each booted with an
// independent OS/R that fully manages its assigned cores and memory.
//
// The framework mirrors the real Pisces control plane:
//
//   - a resource ledger carves per-NUMA-node memory extents and cores out
//     of the host OS's holdings;
//   - enclave boot passes a boot-parameter structure in memory, with a
//     trampoline that normally jumps straight into the co-kernel — or,
//     when a BootInterposer (Covirt) is installed, into the hypervisor,
//     which then launches the co-kernel transparently;
//   - shared-memory command rings plus IPI doorbells implement the control
//     channel (host→enclave management commands) and the longcall channel
//     (enclave→host forwarded system calls);
//   - an ioctl-style ABI lets management tools (and the Covirt controller
//     module, which "piggy-backs on the Pisces kernel ABI") drive the
//     framework;
//   - hook points around memory add/remove let a protection layer update
//     its mappings in the required order (map before the enclave learns of
//     new memory; unmap and flush after the enclave has released it). They
//     are events on the node's one synchronous resource-event bus (Bus),
//     which the Hobbes master control process publishes on too.
package pisces
