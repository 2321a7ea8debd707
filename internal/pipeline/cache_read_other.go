//go:build !unix

package pipeline

import (
	"io"
	"os"
)

// readEntry reads the entry file at path through package os, into a
// buffer of exactly the size the file reports. A file larger than
// maxEntryBytes is refused with errEntryTooLarge before anything is
// allocated for it. A file that shrinks between the stat and the read
// comes back short, and the decoder rejects it.
func readEntry(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() > maxEntryBytes {
		return nil, errEntryTooLarge
	}
	data := make([]byte, fi.Size())
	n, err := io.ReadFull(f, data)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	return data[:n], nil
}
