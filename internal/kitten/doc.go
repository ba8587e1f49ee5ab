// Package kitten simulates the Kitten lightweight kernel running as a
// Pisces co-kernel: a simple, POSIX-like, low-noise OS for HPC workloads.
//
// The simulated Kitten keeps the properties the paper relies on:
//
//   - contiguous physical memory management with identity mappings backed
//     by 2 MiB pages (simple resource management for performance and
//     repeatability);
//   - a run-to-completion scheduler, one task at a time per core, with an
//     idle loop that still services interrupts (so control commands, TLB
//     shootdowns and Covirt NMI doorbells are handled promptly);
//   - a minimal local-timer policy (low-frequency housekeeping tick, which
//     can be disabled entirely for noise-sensitive runs);
//   - management commands from the host arrive over the Pisces control
//     ring and are processed in interrupt context;
//   - heavyweight operations are delegated to the host OS via longcalls
//     (system-call forwarding), including all XEMEM name-service
//     operations.
//
// Guest application code runs as Task functions receiving an Env, whose
// methods charge simulated cycles on the task's CPU. Env.Access enforces
// Kitten's own memory map (the guest page tables); Env.RawRead64 and
// Env.RawWrite64 bypass it, simulating exactly the class of co-kernel
// memory-map bugs Covirt is designed to contain.
package kitten
