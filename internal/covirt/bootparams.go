package covirt

import (
	"fmt"

	"covirt/internal/hw"
)

// BootParamsMagic identifies a Covirt boot-parameter block.
const BootParamsMagic = 0x434F564952540001 // "COVIRT\0\1"

// BootParams is the specialized boot-parameter structure the Covirt
// hypervisor receives instead of the raw Pisces block: the enclave's core
// count and a pointer to the *unmodified* Pisces boot parameters, which
// the hypervisor passes to the co-kernel in a register at VM launch. The block sits in the enclave's reserved area, which its
// EPT maps, so a guest can rewrite it; InterposeBoot checks the chain
// before every launch, so a rewrite fails only the guest's own next
// hot-add.
type BootParams struct {
	NumCPUs      uint64
	PiscesParams uint64 // address of the untouched Pisces boot parameters
}

// encodeBootParams writes bp at addr (host/native access).
func encodeBootParams(mem *hw.PhysMem, addr uint64, bp *BootParams) error {
	for i, v := range [...]uint64{BootParamsMagic, bp.NumCPUs, bp.PiscesParams} {
		if err := mem.Write64(addr+uint64(i)*8, v); err != nil {
			return err
		}
	}
	return nil
}

// decodeBootParams reads a block written by encodeBootParams.
func decodeBootParams(mem *hw.PhysMem, addr uint64) (*BootParams, error) {
	var vals [3]uint64
	for i := range vals {
		v, err := mem.Read64(addr + uint64(i)*8)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	if vals[0] != BootParamsMagic {
		return nil, fmt.Errorf("covirt: bad boot-param magic %#x at %#x", vals[0], addr)
	}
	return &BootParams{NumCPUs: vals[1], PiscesParams: vals[2]}, nil
}
