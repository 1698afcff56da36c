package wal

// inspect.go is the read-only surface behind `deepdb wal inspect|dump`:
// it examines a log directory without opening it for writing, so it is
// safe to point at the WAL of a running (or crashed) server. Torn tails
// are reported, not repaired.

import (
	"path/filepath"
)

// SegmentInfo describes one segment file as found on disk.
type SegmentInfo struct {
	Name      string `json:"name"`
	FirstLSN  uint64 `json:"first_lsn"`
	LastLSN   uint64 `json:"last_lsn"` // 0 when the segment holds no intact records
	Records   int    `json:"records"`
	SizeBytes int64  `json:"size_bytes"`
	// TornBytes is the length of a trailing torn/corrupt region (0 for a
	// clean segment); Open would truncate it on the last segment.
	TornBytes int64 `json:"torn_bytes,omitempty"`
	// HeaderOK reports whether the 16-byte segment header was valid.
	HeaderOK bool `json:"header_ok"`
}

// Info summarizes a log directory for `deepdb wal inspect`.
type Info struct {
	Dir           string        `json:"dir"`
	CheckpointLSN uint64        `json:"checkpoint_lsn"`
	LastLSN       uint64        `json:"last_lsn"`
	Records       int           `json:"records"`
	SizeBytes     int64         `json:"size_bytes"`
	Segments      []SegmentInfo `json:"segments"`
}

// Inspect examines the log directory read-only.
func Inspect(dir string) (Info, error) {
	info := Info{Dir: dir}
	ckpt, err := readCheckpoint(dir)
	if err != nil {
		return info, err
	}
	info.CheckpointLSN = ckpt
	names, err := listSegments(dir)
	if err != nil {
		return info, err
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		m, goodOff, hdrOK, err := scanSegment(path, nil)
		if err != nil {
			return info, err
		}
		// goodOff is 0 when the header is torn: the whole file is.
		si := SegmentInfo{Name: name, FirstLSN: m.first, LastLSN: m.last,
			Records: m.records, SizeBytes: m.bytes, HeaderOK: hdrOK, TornBytes: m.bytes - goodOff}
		info.Records += m.records
		info.SizeBytes += m.bytes
		if m.last > info.LastLSN {
			info.LastLSN = m.last
		}
		info.Segments = append(info.Segments, si)
	}
	return info, nil
}

// Dump streams every intact record with LSN above after, in order, to fn —
// read-only, tolerating a torn tail. `deepdb wal dump` decodes the
// payloads; crash tests use it to learn which records survived a kill.
func Dump(dir string, after uint64, fn func(lsn uint64, payload []byte) error) error {
	names, err := listSegments(dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		_, _, _, err := scanSegment(filepath.Join(dir, name), func(lsn uint64, payload []byte) error {
			if lsn <= after {
				return nil
			}
			return fn(lsn, payload)
		})
		if err != nil {
			return err
		}
	}
	return nil
}
