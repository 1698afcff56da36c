// Package wal implements the durable write-ahead log behind deepdb's
// update pipeline. Mutations are appended to segmented, checksummed log
// files before they enter the in-memory queue; after a crash, Open replays
// every record past the last checkpoint and the facade re-applies it, which
// reproduces the pre-crash state bit-for-bit (the apply path is
// deterministic for a fixed mutation order).
//
// On-disk layout (one directory per log):
//
//	<dir>/00000000000000000001.wal   segment, named by its first LSN
//	<dir>/00000000000000004097.wal   next segment after rotation
//	<dir>/CHECKPOINT                 last durably-saved LSN (tmp+rename)
//
// Each segment starts with a 16-byte header (magic + first LSN) followed by
// records framed as
//
//	[8B LSN][4B payload len][4B CRC32-C over LSN|len|payload][payload]
//
// LSNs are assigned contiguously starting at 1. A torn or corrupt tail —
// the expected aftermath of kill -9 mid-write — is truncated away on the
// *last* segment only; corruption in the middle of the log is data loss and
// reported as an error. Checkpoint persists the save watermark and deletes
// every segment fully below it, bounding disk usage under a sustained
// writer stream.
//
// Durability is configurable: Sync fsyncs every append, Batched fsyncs
// every SyncEvery appends plus on a background interval, Off leaves
// flushing to the OS. Completed segments are always fsynced before
// rotation, so the only-the-tail-is-torn invariant holds in every mode.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
)

// Durability selects how aggressively appends reach stable storage.
type Durability int

const (
	// Sync fsyncs after every append: no acknowledged record is ever lost.
	Sync Durability = iota
	// Batched fsyncs every Options.SyncEvery appends and on a background
	// interval: a crash loses at most the unsynced tail.
	Batched
	// Off never fsyncs on the append path: a crash may lose everything the
	// OS had not written back yet. Close still syncs.
	Off
)

func (d Durability) String() string {
	switch d {
	case Sync:
		return "sync"
	case Batched:
		return "batched"
	case Off:
		return "off"
	}
	return fmt.Sprintf("Durability(%d)", int(d))
}

// Options configures a log.
type Options struct {
	// Durability selects the fsync policy (default Sync).
	Durability Durability
	// SegmentBytes rotates to a fresh segment once the active one exceeds
	// this size (default 4 MiB).
	SegmentBytes int64
	// SyncEvery bounds how many appends may accumulate before a Batched
	// log fsyncs inline (default 256).
	SyncEvery int
	// SyncInterval is the Batched background flush period (default 10ms).
	SyncInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 256
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 10 * time.Millisecond
	}
	return o
}

// Stats is a point-in-time snapshot of log counters.
type Stats struct {
	// Appended counts records accepted by Append this session; Synced
	// counts fsync calls on the append path.
	Appended uint64
	Synced   uint64
	// Replayed counts records delivered by the last Replay.
	Replayed uint64
	// TruncatedSegments counts segment files deleted by Checkpoint this
	// session.
	TruncatedSegments uint64
	// Segments and SizeBytes describe the current on-disk footprint.
	Segments  int
	SizeBytes int64
	// LastLSN is the highest LSN ever appended (0 when the log is empty);
	// CheckpointLSN is the persisted save watermark.
	LastLSN       uint64
	CheckpointLSN uint64
}

const (
	segSuffix      = ".wal"
	checkpointName = "CHECKPOINT"
	headerSize     = 16
	recHeaderSize  = 16
)

var (
	segMagic = [8]byte{'D', 'D', 'B', 'W', 'A', 'L', 0, 1}
	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

// segMeta tracks one segment file.
type segMeta struct {
	name    string
	first   uint64 // first LSN (from the header; records may start later never earlier)
	last    uint64 // last LSN present, 0 when the segment holds no records
	records int
	bytes   int64
}

// Log is an append-only write-ahead log over one directory. All methods
// are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File // active (last) segment, positioned at its end
	segs    []segMeta
	nextLSN uint64
	ckpt    uint64
	stats   Stats
	dirty   bool // unsynced appends outstanding (Batched)
	sinceIn int  // appends since the last inline sync (Batched)
	started bool // any Append happened (Replay is only valid before)
	closed  bool
	ioErr   error // wedge latch: the segment file is in an unknown state

	stopc chan struct{}
	wg    sync.WaitGroup
}

// Open opens (or creates) the log in dir, validating every segment and
// truncating a torn tail on the last one. The returned log continues
// appending after the highest surviving LSN.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, stopc: make(chan struct{})}
	ckpt, err := readCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	l.ckpt = ckpt
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, name := range segs {
		path := filepath.Join(dir, name)
		m, goodOff, hdrOK, err := scanSegment(path, nil)
		if err != nil {
			return nil, err
		}
		isLast := i == len(segs)-1
		if !hdrOK {
			if !isLast {
				return nil, fmt.Errorf("wal: segment %s has a corrupt header and is not the last segment", name)
			}
			// A crash during rotation can leave a half-written header on
			// a record-free tail segment; drop it.
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			continue
		}
		if goodOff < m.bytes {
			if !isLast {
				return nil, fmt.Errorf("wal: segment %s is corrupt at offset %d but is not the last segment", name, goodOff)
			}
			if err := os.Truncate(path, goodOff); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", name, err)
			}
			m.bytes = goodOff
		}
		if n := len(l.segs); n > 0 {
			prev := l.segs[n-1]
			prevNext := prev.first
			if prev.records > 0 {
				prevNext = prev.last + 1
			}
			if m.first != prevNext {
				return nil, fmt.Errorf("wal: segment %s starts at LSN %d, expected %d (missing segment?)", name, m.first, prevNext)
			}
		}
		l.segs = append(l.segs, m)
	}
	switch {
	case len(l.segs) == 0:
		l.nextLSN = l.ckpt + 1
		if err := l.rotateLocked(); err != nil {
			return nil, err
		}
	default:
		active := l.segs[len(l.segs)-1]
		if active.records > 0 {
			l.nextLSN = active.last + 1
		} else {
			l.nextLSN = active.first
		}
		f, err := os.OpenFile(filepath.Join(dir, active.name), os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Seek(0, 2); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
	}
	l.refreshSizeLocked()
	if l.nextLSN > 1 {
		l.stats.LastLSN = l.nextLSN - 1
	}
	l.stats.CheckpointLSN = l.ckpt
	if opts.Durability == Batched {
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// Append writes one record and returns its LSN, honoring the configured
// durability mode. The payload is opaque to the log.
//
// The LSN watermark, segment metadata and stats advance only after the
// record has cleared the configured durability barrier: a failed write or
// fsync rolls the segment file back to its pre-append shape and the next
// Append reuses the same LSN, so an errored Append leaves no trace and an
// LSN returned without error is never reassigned. If the file cannot be
// rolled back (or a torn write left a partial record behind) the log
// wedges: every later Append fails fast with the original error and the
// caller must reopen the log, which re-runs torn-tail repair.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: closed")
	}
	if l.ioErr != nil {
		return 0, fmt.Errorf("wal: log wedged by earlier I/O failure: %w", l.ioErr)
	}
	l.started = true
	lsn := l.nextLSN
	rec := make([]byte, recHeaderSize+len(payload))
	binary.BigEndian.PutUint64(rec[0:8], lsn)
	binary.BigEndian.PutUint32(rec[8:12], uint32(len(payload)))
	copy(rec[recHeaderSize:], payload)
	crc := crc32.Update(0, crcTable, rec[0:12])
	crc = crc32.Update(crc, crcTable, payload)
	binary.BigEndian.PutUint32(rec[12:16], crc)

	active := &l.segs[len(l.segs)-1]
	start := active.bytes // == current file size; rollback target

	if r := fault.Check(fault.WALAppendWrite); r.Err != nil {
		if r.Torn > 0 {
			// Persist a prefix of the record and wedge: the on-disk
			// aftermath of a crash mid-write. Reopen repairs via torn-tail
			// truncation.
			if n := min(r.Torn, len(rec)); n > 0 {
				_, _ = l.f.Write(rec[:n])
			}
			l.ioErr = r.Err
			return 0, fmt.Errorf("wal: %w", r.Err)
		}
		return 0, fmt.Errorf("wal: %w", r.Err)
	}
	if _, err := l.f.Write(rec); err != nil {
		l.rollbackLocked(start, err)
		return 0, fmt.Errorf("wal: %w", err)
	}

	// Durability barrier before commit.
	switch l.opts.Durability {
	case Sync:
		serr := fault.Check(fault.WALAppendSync).Err
		if serr == nil {
			serr = l.f.Sync()
		}
		if serr != nil {
			l.rollbackLocked(start, serr)
			return 0, fmt.Errorf("wal: %w", serr)
		}
		l.stats.Synced++
	case Batched:
		if l.sinceIn+1 >= l.opts.SyncEvery {
			serr := fault.Check(fault.WALAppendSync).Err
			if serr == nil {
				serr = l.f.Sync()
			}
			if serr != nil {
				l.rollbackLocked(start, serr)
				return 0, fmt.Errorf("wal: %w", serr)
			}
			l.stats.Synced++
			l.dirty = false
			l.sinceIn = 0
		} else {
			l.dirty = true
			l.sinceIn++
		}
	}

	l.nextLSN++
	active.last = lsn
	active.records++
	active.bytes += int64(len(rec))
	l.stats.Appended++
	l.stats.LastLSN = lsn
	l.stats.SizeBytes += int64(len(rec))

	if active.bytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// rollbackLocked restores the active segment to its pre-append size after
// a failed write or fsync, so the aborted record leaves no bytes behind
// and the next append lands at the same offset with the same LSN. If the
// restore itself fails the segment tail is in an unknown state and the log
// wedges with cause.
func (l *Log) rollbackLocked(start int64, cause error) {
	if err := l.f.Truncate(start); err != nil {
		l.ioErr = fmt.Errorf("%w (and rollback truncate failed: %v)", cause, err)
		return
	}
	if _, err := l.f.Seek(start, 0); err != nil {
		l.ioErr = fmt.Errorf("%w (and rollback seek failed: %v)", cause, err)
	}
}

func (l *Log) syncLocked() error {
	if l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.stats.Synced++
	l.dirty = false
	l.sinceIn = 0
	return nil
}

// Replay streams every record with LSN above the checkpoint, in order, to
// fn. It is only valid before the first Append (the facade replays right
// after Open); fn returning an error aborts the replay with that error.
func (l *Log) Replay(fn func(lsn uint64, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: closed")
	}
	if l.started {
		l.mu.Unlock()
		return fmt.Errorf("wal: Replay after Append")
	}
	segs := append([]segMeta(nil), l.segs...)
	ckpt := l.ckpt
	l.mu.Unlock()

	var replayed uint64
	for _, m := range segs {
		if m.records == 0 || m.last <= ckpt {
			continue
		}
		_, _, _, err := scanSegment(filepath.Join(l.dir, m.name), func(lsn uint64, payload []byte) error {
			if lsn <= ckpt {
				return nil
			}
			replayed++
			return fn(lsn, payload)
		})
		if err != nil {
			return err
		}
	}
	l.mu.Lock()
	l.stats.Replayed = replayed
	l.mu.Unlock()
	return nil
}

// Checkpoint durably records that state up to and including lsn has been
// saved elsewhere (the model file), then deletes every non-active segment
// fully at or below the watermark. Replay after the next Open skips
// checkpointed records.
func (l *Log) Checkpoint(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: closed")
	}
	if lsn < l.ckpt {
		return nil // watermarks only advance
	}
	if err := writeCheckpoint(l.dir, lsn); err != nil {
		return err
	}
	l.ckpt = lsn
	l.stats.CheckpointLSN = lsn
	keep := l.segs[:0]
	for i, m := range l.segs {
		active := i == len(l.segs)-1
		if !active && m.records > 0 && m.last <= lsn {
			if err := os.Remove(filepath.Join(l.dir, m.name)); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			l.stats.TruncatedSegments++
			continue
		}
		keep = append(keep, m)
	}
	l.segs = keep
	l.refreshSizeLocked()
	return nil
}

// Stats returns a snapshot of the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Segments = len(l.segs)
	return s
}

// Close syncs and closes the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.stopc)
	var err error
	if l.f != nil {
		if serr := l.f.Sync(); serr != nil && err == nil {
			err = fmt.Errorf("wal: %w", serr)
		}
		if cerr := l.f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("wal: %w", cerr)
		}
		l.f = nil
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}

// syncLoop is the Batched-mode background flusher.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopc:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.dirty {
				_ = l.syncLocked() // surfaced by the next Append/Sync if persistent
			}
			l.mu.Unlock()
		}
	}
}

// rotateLocked syncs and closes the active segment and opens a fresh one
// whose first LSN is the next record's.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		// Completed segments are always durable before a successor exists,
		// preserving the only-the-last-segment-is-torn invariant.
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.f = nil
	}
	name := segmentName(l.nextLSN)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[0:8], segMagic[:])
	binary.BigEndian.PutUint64(hdr[8:16], l.nextLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if l.opts.Durability == Sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segs = append(l.segs, segMeta{name: name, first: l.nextLSN, bytes: headerSize})
	l.refreshSizeLocked()
	return nil
}

func (l *Log) refreshSizeLocked() {
	var total int64
	for _, m := range l.segs {
		total += m.bytes
	}
	l.stats.SizeBytes = total
}

// ---- segment scanning ----

// scanSegment validates one segment file: header, record framing, CRCs and
// LSN continuity. goodOff is the offset past the last intact record
// (callers truncate a torn tail to it); hdrOK reports whether the 16-byte
// segment header itself was valid. fn, when non-nil, receives each intact
// record in order; its error stops the scan and is returned. Other errors
// are I/O only — framing damage is reported through goodOff, never as an
// error, so a torn tail simply ends the records fn sees (Open already
// truncated it for live logs; the read-only Inspect/Dump paths tolerate it
// in place).
func scanSegment(path string, fn func(lsn uint64, payload []byte) error) (m segMeta, goodOff int64, hdrOK bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return m, 0, false, fmt.Errorf("wal: %w", err)
	}
	m.name = filepath.Base(path)
	m.bytes = int64(len(data))
	if len(data) < headerSize || [8]byte(data[0:8]) != segMagic {
		return m, 0, false, nil
	}
	m.first = binary.BigEndian.Uint64(data[8:16])
	if nameLSN, ok := parseSegmentName(m.name); !ok || nameLSN != m.first {
		return m, 0, false, nil
	}
	off := int64(headerSize)
	expect := m.first
	for {
		rec := data[off:]
		if len(rec) < recHeaderSize {
			break
		}
		lsn := binary.BigEndian.Uint64(rec[0:8])
		n := binary.BigEndian.Uint32(rec[8:12])
		if lsn != expect || int64(recHeaderSize)+int64(n) > int64(len(rec)) {
			break
		}
		want := binary.BigEndian.Uint32(rec[12:16])
		crc := crc32.Update(0, crcTable, rec[0:12])
		crc = crc32.Update(crc, crcTable, rec[recHeaderSize:recHeaderSize+int(n)])
		if crc != want {
			break
		}
		if fn != nil {
			if err := fn(lsn, rec[recHeaderSize:recHeaderSize+int(n)]); err != nil {
				return m, off, true, err
			}
		}
		m.last = lsn
		m.records++
		off += int64(recHeaderSize) + int64(n)
		expect++
	}
	return m, off, true, nil
}

// ---- directory helpers ----

func segmentName(firstLSN uint64) string {
	return fmt.Sprintf("%020d%s", firstLSN, segSuffix)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := parseSegmentName(e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

func readCheckpoint(dir string) (uint64, error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	fields := strings.Fields(string(data))
	if len(fields) != 2 || fields[0] != "deepdb-wal-checkpoint" {
		return 0, fmt.Errorf("wal: malformed checkpoint file in %s", dir)
	}
	lsn, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("wal: malformed checkpoint LSN: %w", err)
	}
	return lsn, nil
}

// writeCheckpoint persists the watermark atomically: temp file, fsync,
// rename, directory fsync — a crash leaves either the old or the new
// watermark, never a torn one.
func writeCheckpoint(dir string, lsn uint64) error {
	tmp := filepath.Join(dir, checkpointName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := fmt.Fprintf(f, "deepdb-wal-checkpoint %d\n", lsn); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
