package durable

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// ErrBroken marks a log whose failed append could not be cut back off
// the file; it refuses every later append rather than acknowledge a
// record glued to the fragment, which the next open would truncate.
var ErrBroken = errors.New("log broken by an unrepaired failed append")

// Log is an append-only file of newline-terminated JSON records, held
// under an exclusive flock while open. A record is one write plus one
// fsync, so a crash leaves at most one partial final line. When a
// write or fsync fails, Append truncates the file back to the end of
// the last good record and fsyncs the cut, so the next record starts on
// a clean line; if that repair fails too, the log is ErrBroken.
type Log struct {
	mu   sync.Mutex
	f    File
	path string
	end  int64 // offset just past the last complete record
	err  error // sticky; set when a repair failed
}

// Open opens (creating if needed) the log at path on fsys (nil = the
// real filesystem), takes the flock, and passes every complete line,
// without its newline, to decode in file order. The first torn
// (unterminated) line or the first line decode rejects ends the replay:
// it and everything after it are truncated away.
func Open(path string, fsys FS, decode func(line []byte) bool) (*Log, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lock(f.Fd()); err != nil {
		f.Close()
		return nil, fmt.Errorf("already locked by another process (flock: %w); two writers "+
			"would interleave appends — stop the other process or use a different path", err)
	}
	l := &Log{f: f, path: path}
	rd := bufio.NewReader(f)
	var good int64
	for {
		line, err := rd.ReadBytes('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		if !decode(line[:len(line)-1]) {
			break // everything after a corrupt line is suspect too
		}
		good += int64(len(line))
	}
	if err := l.truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("truncate torn tail: %w", err)
	}
	return l, nil
}

// truncate cuts the file to size and moves the write offset there.
func (l *Log) truncate(size int64) error {
	if err := l.f.Truncate(size); err != nil {
		return err
	}
	if _, err := l.f.Seek(size, io.SeekStart); err != nil {
		return err
	}
	l.end = size
	return nil
}

// Append writes v as one JSON line with one write and one fsync; nil
// means the record is on stable storage. Safe for concurrent use.
func (l *Log) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if _, err = l.f.Write(b); err == nil {
		err = l.f.Sync()
	}
	if err == nil {
		l.end += int64(len(b))
		return nil
	}
	rerr := l.truncate(l.end)
	if rerr == nil {
		rerr = l.f.Sync()
	}
	if rerr != nil {
		l.err = fmt.Errorf("%s: %w: append: %v; repair: %v", l.path, ErrBroken, err, rerr)
	}
	return err
}

// Reset empties the log — crash-safe exactly when no record in it is
// still needed.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncate(0)
}

// Close releases the file and with it the flock.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
