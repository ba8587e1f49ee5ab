package vmx

import (
	"covirt/internal/hw"
)

// VCPU places one simulated CPU in VMX non-root operation. It implements
// hw.VirtLayer by consulting the VMCS controls: operations the VMCS does not
// intercept execute at native cost (the zero-overhead fast path Covirt's
// design leans on); intercepted operations charge world-switch costs and
// dispatch to the ExitHandler.
type VCPU struct {
	CPU     *hw.CPU
	VMCS    *VMCS
	Handler ExitHandler
	Stats   ExitStats

	// transCache holds recently completed nested walks, validated against
	// EPT.Gen() on every hit; see transcache.go. Owned by the execution
	// goroutine. Nothing empties it: every EPT change bumps the
	// generation, which retires every older entry at its next lookup.
	transCache transCache

	// nmiExit is the exit record OnNMI hands the handler. Every NMI exit
	// carries the same contents, so the record lives here instead of being
	// allocated per NMI. Owned by the execution goroutine, like transCache.
	nmiExit ExitInfo
}

// Launch installs the VCPU as the CPU's virtualization layer and marks the
// VMCS launched. It mirrors vmlaunch: after this, all guest operations on
// the core are subject to the VMCS controls.
func Launch(c *hw.CPU, vmcs *VMCS, h ExitHandler) *VCPU {
	v := &VCPU{CPU: c, VMCS: vmcs, Handler: h}
	c.Virt = v
	vmcs.MarkLaunched()
	return v
}

// exit performs a full VM exit + handler dispatch + re-entry, returning the
// handler's action.
func (v *VCPU) exit(c *hw.CPU, info *ExitInfo) (ExitAction, uint64) {
	cs := c.Costs()
	cost := cs.VMExit
	info.CPU = c.ID
	action := ActionResume
	if v.Handler != nil {
		action = v.Handler.HandleExit(c, info)
	}
	if action != ActionKill {
		cost += cs.VMEntry
	}
	v.Stats.record(info.Reason, cost)
	return action, cost
}

// TranslateGPA implements hw.VirtLayer. Without EPT it is free; with EPT it
// charges the nested portion of the two-dimensional walk and raises EPT
// violations through the exit path.
func (v *VCPU) TranslateGPA(c *hw.CPU, gpa uint64, write bool) (uint64, uint64, error) {
	surcharge := c.Costs().VMXWalkSurcharge
	if v.VMCS.EPT == nil {
		return surcharge, 0, nil
	}
	// Fast path: a translation cached under the current EPT generation
	// charges exactly what the walk it memoized charged (same levels, same
	// surcharge) and skips the walk. The generation is read before the
	// walk so a racing remap can only make a fresh entry look stale —
	// never a stale entry look fresh (Gen() bumps after the mutation).
	gen := v.VMCS.EPT.Gen()
	if e, ok := v.transCache.lookup(gpa, write, gen); ok {
		return surcharge + uint64(e.levels)*c.Costs().EPTWalkPerLevel, e.pageSize, nil
	}
	res, err := v.VMCS.EPT.Walk(gpa, write)
	if err == nil {
		v.transCache.insert(gpa, res, gen)
		// Nested-walk surcharge: paging-structure caches absorb most of
		// the architectural (g+1)*(e+1)-1 accesses, leaving roughly one
		// extra access per EPT level actually traversed.
		e := uint64(res.Levels)
		extra := surcharge + e*c.Costs().EPTWalkPerLevel
		return extra, res.PageSize, nil
	}
	// EPT violation: exit to the hypervisor.
	info := &ExitInfo{Reason: ExitEPTViolation, GPA: gpa, Write: write}
	action, cost := v.exit(c, info)
	if action == ActionResume {
		// The hypervisor claims to have repaired the mapping; retry once.
		if res2, err2 := v.VMCS.EPT.Walk(gpa, write); err2 == nil {
			e := uint64(res2.Levels)
			return cost + e*c.Costs().EPTWalkPerLevel, res2.PageSize, nil
		}
	}
	f := err.(*hw.Fault)
	f.CPU = c.ID
	c.M.RecordFault(*f)
	return cost, 0, &hw.Fault{Kind: hw.FaultEnclaveKilled, Addr: gpa, Write: write, CPU: c.ID, Msg: "EPT violation"}
}

// FilterIPI implements hw.VirtLayer: with APIC virtualization enabled every
// guest ICR write exits so the hypervisor can check the destination/vector
// whitelist.
func (v *VCPU) FilterIPI(c *hw.CPU, dest int, vector uint8) (bool, uint64, error) {
	if !v.VMCS.Controls.VirtualAPIC {
		return true, 0, nil
	}
	info := &ExitInfo{Reason: ExitICRWrite, IPIDest: dest, IPIVector: vector}
	action, cost := v.exit(c, info)
	switch action {
	case ActionDrop:
		return false, cost, nil
	case ActionKill:
		return false, cost, &hw.Fault{Kind: hw.FaultEnclaveKilled, CPU: c.ID, Msg: "forbidden IPI"}
	}
	return true, cost, nil
}

// MSRRead implements hw.VirtLayer.
func (v *VCPU) MSRRead(c *hw.CPU, msr uint32) (uint64, uint64, error) {
	if v.VMCS.MSRBitmap == nil || !v.VMCS.MSRBitmap.TrapsRead(msr) {
		return c.MSRs.Read(msr), 0, nil
	}
	info := &ExitInfo{Reason: ExitMSRRead, MSR: msr, MSRVal: c.MSRs.Read(msr)}
	action, cost := v.exit(c, info)
	if action == ActionKill {
		return 0, cost, &hw.Fault{Kind: hw.FaultEnclaveKilled, CPU: c.ID, Msg: "forbidden MSR read"}
	}
	return info.MSRVal, cost, nil
}

// MSRWrite implements hw.VirtLayer.
func (v *VCPU) MSRWrite(c *hw.CPU, msr uint32, val uint64) (uint64, error) {
	if v.VMCS.MSRBitmap == nil || !v.VMCS.MSRBitmap.TrapsWrite(msr) {
		c.MSRs.Write(msr, val)
		return 0, nil
	}
	info := &ExitInfo{Reason: ExitMSRWrite, MSR: msr, MSRVal: val}
	action, cost := v.exit(c, info)
	switch action {
	case ActionKill:
		return cost, &hw.Fault{Kind: hw.FaultEnclaveKilled, CPU: c.ID, Msg: "forbidden MSR write"}
	case ActionDrop:
		return cost, nil // write suppressed
	}
	c.MSRs.Write(msr, val)
	return cost, nil
}

// IO implements hw.VirtLayer.
func (v *VCPU) IO(c *hw.CPU, port uint16, write bool, val uint32) (uint32, uint64, error) {
	if v.VMCS.IOBitmap == nil || !v.VMCS.IOBitmap.Traps(port) {
		if write {
			c.M.Ports.Out(port, val)
			return 0, 0, nil
		}
		return c.M.Ports.In(port), 0, nil
	}
	info := &ExitInfo{Reason: ExitIO, Port: port, IOWrite: write, IOVal: val}
	action, cost := v.exit(c, info)
	switch action {
	case ActionKill:
		return 0, cost, &hw.Fault{Kind: hw.FaultEnclaveKilled, CPU: c.ID, Msg: "forbidden I/O"}
	case ActionDrop:
		if !write {
			return 0xFFFFFFFF, cost, nil
		}
		return 0, cost, nil
	}
	if write {
		c.M.Ports.Out(port, val)
		return 0, cost, nil
	}
	return c.M.Ports.In(port), cost, nil
}

// OnInterrupt implements hw.VirtLayer: delivery cost depends on APIC
// virtualization mode. Full virtualization exits for every incoming
// interrupt; posted interrupts deliver IPIs exitlessly but still exit for
// external (device) interrupts, including the local APIC timer.
func (v *VCPU) OnInterrupt(c *hw.CPU, vector uint8, external bool) uint64 {
	ctl := v.VMCS.Controls
	if !ctl.VirtualAPIC {
		return 0 // direct delivery, no interception
	}
	if ctl.PostedInterrupts && !external {
		if v.VMCS.PID != nil {
			v.VMCS.PID.Post(vector)
			v.VMCS.PID.Drain() // hardware injects immediately in our model
		}
		return c.Costs().PostedProcess
	}
	info := &ExitInfo{Reason: ExitExternalInterrupt, Vector: vector}
	_, cost := v.exit(c, info)
	return cost
}

// OnNMI implements hw.VirtLayer. NMIs always exit; Covirt uses them as the
// controller's command-queue doorbell.
func (v *VCPU) OnNMI(c *hw.CPU) uint64 {
	v.nmiExit = ExitInfo{Reason: ExitNMI}
	_, cost := v.exit(c, &v.nmiExit)
	return cost
}

// Emulate implements hw.VirtLayer for unconditionally-trapping instructions.
func (v *VCPU) Emulate(c *hw.CPU, instr hw.EmulInstr) (uint64, error) {
	reason := ExitCPUID
	if instr == hw.InstrXSETBV {
		reason = ExitXSETBV
	}
	info := &ExitInfo{Reason: reason}
	action, cost := v.exit(c, info)
	if action == ActionKill {
		return cost, &hw.Fault{Kind: hw.FaultEnclaveKilled, CPU: c.ID, Msg: "emulation refused"}
	}
	return cost, nil
}

// OnAbort implements hw.VirtLayer: abort-class guest faults exit to the
// hypervisor, which can contain them by terminating only the enclave.
func (v *VCPU) OnAbort(c *hw.CPU, f *hw.Fault) error {
	reason := ExitTripleFault
	if f.Kind == hw.FaultDoubleFault {
		reason = ExitDoubleFault
	}
	info := &ExitInfo{Reason: reason, GPA: f.Addr, Write: f.Write}
	action, _ := v.exit(c, info)
	c.M.RecordFault(*f)
	if action == ActionKill {
		return &hw.Fault{Kind: hw.FaultEnclaveKilled, CPU: c.ID, Msg: "abort contained: " + f.Error()}
	}
	// Not contained: the abort escalates and resets the node.
	c.M.Crash(f.Error())
	return &hw.Fault{Kind: hw.FaultMachineCrashed, CPU: c.ID, Msg: f.Error()}
}

var _ hw.VirtLayer = (*VCPU)(nil)
