package hw

import "sync"

// Well-known model-specific register numbers used by the simulation. The
// values match the x86 architectural MSR numbers so traces read naturally.
const (
	MSR_IA32_APIC_BASE    uint32 = 0x1B
	MSR_IA32_MISC_ENABLE  uint32 = 0x1A0
	MSR_IA32_PAT          uint32 = 0x277
	MSR_IA32_EFER         uint32 = 0xC0000080
	MSR_IA32_STAR         uint32 = 0xC0000081
	MSR_IA32_LSTAR        uint32 = 0xC0000082
	MSR_IA32_FS_BASE      uint32 = 0xC0000100
	MSR_IA32_GS_BASE      uint32 = 0xC0000101
	MSR_IA32_TSC_DEADLINE uint32 = 0x6E0
)

// MSRFile is one CPU's model-specific register file. Reads of never-written
// MSRs return zero, as most architectural MSRs reset to zero.
type MSRFile struct {
	mu   sync.Mutex
	regs map[uint32]uint64
}

// NewMSRFile returns an empty register file with architectural defaults.
func NewMSRFile() *MSRFile {
	m := &MSRFile{regs: make(map[uint32]uint64)}
	m.regs[MSR_IA32_EFER] = 1<<8 | 1<<10 // LME|LMA: we boot straight into long mode
	m.regs[MSR_IA32_APIC_BASE] = 0xFEE00000 | 1<<11
	return m
}

// Read returns the value of msr.
func (m *MSRFile) Read(msr uint32) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.regs[msr]
}

// Write stores val into msr.
func (m *MSRFile) Write(msr uint32, val uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.regs[msr] = val
}
