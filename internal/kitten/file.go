package kitten

import (
	"fmt"

	"covirt/internal/pisces"
)

// File is a handle to a host-OS file opened via system-call forwarding.
// Kitten itself has no filesystem — one of the heavyweight subsystems the
// co-kernel design deliberately delegates to the general-purpose OS.
type File struct {
	env *Env
	fd  uint64
}

// stagePath writes the path into the longcall data buffer.
func (e *Env) stagePath(path string) (uint64, error) {
	if len(path) == 0 || len(path) > 4096 {
		return 0, fmt.Errorf("kitten: bad path length %d", len(path))
	}
	io := pisces.CPUMemIO{CPU: e.CPU}
	if err := io.WriteBytes(e.K.enc.Base()+pisces.OffLcData, []byte(path)); err != nil {
		return 0, err
	}
	return uint64(len(path)), nil
}

// Open opens a host file. flags is one of pisces.OpenRead, OpenWrite
// (create/truncate) or OpenAppend.
func (e *Env) Open(path string, flags uint64) (*File, error) {
	n, err := e.stagePath(path)
	if err != nil {
		return nil, err
	}
	fd, _, err := e.Syscall(pisces.SysOpen, n, flags)
	if err != nil {
		return nil, fmt.Errorf("kitten: open %s: %w", path, err)
	}
	return &File{env: e, fd: fd}, nil
}

// Unlink removes a host file.
func (e *Env) Unlink(path string) error {
	n, err := e.stagePath(path)
	if err != nil {
		return err
	}
	_, _, err = e.Syscall(pisces.SysUnlink, n)
	return err
}

// cursor is the sentinel offset meaning "use the file position".
const cursor = ^uint64(0)

// Read fills p from the file's current position, returning bytes read
// (0 at EOF).
func (f *File) Read(p []byte) (int, error) { return f.readAt(p, cursor) }

// ReadAt fills p from an absolute offset, without moving the cursor.
func (f *File) ReadAt(p []byte, off uint64) (int, error) { return f.readAt(p, off) }

func (f *File) readAt(p []byte, off uint64) (int, error) {
	if len(p) > pisces.LcDataBytes {
		p = p[:pisces.LcDataBytes]
	}
	n, _, err := f.env.Syscall(pisces.SysRead, f.fd, off, uint64(len(p)))
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	io := pisces.CPUMemIO{CPU: f.env.CPU}
	if err := io.ReadBytes(f.env.K.enc.Base()+pisces.OffLcData, p[:n]); err != nil {
		return 0, err
	}
	return int(n), nil
}

// Write appends p at the file's current position, returning bytes written.
func (f *File) Write(p []byte) (int, error) {
	if len(p) > pisces.LcDataBytes {
		return 0, fmt.Errorf("kitten: write of %d exceeds transfer buffer", len(p))
	}
	io := pisces.CPUMemIO{CPU: f.env.CPU}
	if err := io.WriteBytes(f.env.K.enc.Base()+pisces.OffLcData, p); err != nil {
		return 0, err
	}
	n, _, err := f.env.Syscall(pisces.SysWrite, f.fd, cursor, uint64(len(p)))
	return int(n), err
}

// Size returns the current file length.
func (f *File) Size() (uint64, error) {
	size, _, err := f.env.Syscall(pisces.SysFsize, f.fd)
	return size, err
}

// Close releases the descriptor.
func (f *File) Close() error {
	_, _, err := f.env.Syscall(pisces.SysClose, f.fd)
	return err
}
