package hw

import "sync"

// IODevice services port I/O for a range of ports.
type IODevice interface {
	// In reads a value from the device at port.
	In(port uint16) uint32
	// Out writes val to the device at port.
	Out(port uint16, val uint32)
}

// Well-known port numbers used by examples and fault-injection tests.
const (
	PortSerialCOM1 uint16 = 0x3F8
	PortReset      uint16 = 0xCF9 // writing here resets the machine
)

// IOPortSpace routes port I/O to registered devices. Unclaimed ports float:
// reads return all-ones and writes are dropped, like an empty ISA bus.
type IOPortSpace struct {
	mu      sync.RWMutex
	devices map[uint16]IODevice
}

// NewIOPortSpace returns an empty port space.
func NewIOPortSpace() *IOPortSpace {
	return &IOPortSpace{devices: make(map[uint16]IODevice)}
}

// Register claims port for dev.
func (s *IOPortSpace) Register(port uint16, dev IODevice) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.devices[port] = dev
}

// device looks up the handler for port under the read lock; device
// callbacks themselves run outside it.
func (s *IOPortSpace) device(port uint16) IODevice {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.devices[port]
}

// In performs a port read.
func (s *IOPortSpace) In(port uint16) uint32 {
	dev := s.device(port)
	if dev == nil {
		return 0xFFFFFFFF
	}
	return dev.In(port)
}

// Out performs a port write.
func (s *IOPortSpace) Out(port uint16, val uint32) {
	if dev := s.device(port); dev != nil {
		dev.Out(port, val)
	}
}

// SerialSink is a trivial IODevice capturing bytes written to a serial port;
// useful for observing guest console output in tests and examples.
type SerialSink struct {
	mu  sync.Mutex
	buf []byte
}

// In always reports transmitter-ready status.
func (s *SerialSink) In(port uint16) uint32 { return 0x20 }

// Out captures the low byte written.
func (s *SerialSink) Out(port uint16, val uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf, byte(val))
}

// String returns everything written so far.
func (s *SerialSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.buf)
}
