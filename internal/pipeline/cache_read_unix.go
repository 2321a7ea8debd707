//go:build unix

package pipeline

import "syscall"

// readEntry reads the entry file at path in four system calls: open,
// fstat, one read into a buffer of exactly the file's size, and
// close, on every path. It makes no *os.File, so a regular file is
// never registered with the runtime poller. Calls interrupted by a
// signal are retried, as package os does. A file larger than
// maxEntryBytes is refused with errEntryTooLarge before anything is
// allocated for it. A file that shrinks between fstat and read comes
// back short, and the decoder rejects it.
func readEntry(path string) ([]byte, error) {
	var fd int
	var err error
	for {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	var st syscall.Stat_t
	for {
		err = syscall.Fstat(fd, &st)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	if int64(st.Size) > maxEntryBytes {
		return nil, errEntryTooLarge
	}
	data := make([]byte, st.Size)
	n := 0
	for n < len(data) {
		k, err := syscall.Read(fd, data[n:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, err
		}
		if k == 0 {
			break
		}
		n += k
	}
	return data[:n], nil
}
