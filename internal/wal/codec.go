package wal

// codec.go serializes mutation groups into WAL record payloads. The format
// is deliberately tiny and deterministic (column names are sorted), so a
// group encodes to the same bytes regardless of map iteration order —
// useful for tests and for comparing dumps across runs.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/ensemble"
	"repro/internal/table"
)

const (
	opInsert = byte(0)
	opDelete = byte(1)
)

// EncodeMutations serializes one mutation group (the unit of one
// Insert/Delete call) into a record payload.
func EncodeMutations(muts []ensemble.Mutation) []byte {
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(muts)))
	for i := range muts {
		m := &muts[i]
		switch m.Op {
		case ensemble.OpInsert:
			out = append(out, opInsert)
			out = appendString(out, m.Table)
			cols := make([]string, 0, len(m.Values))
			for c := range m.Values {
				cols = append(cols, c)
			}
			sort.Strings(cols)
			out = binary.AppendUvarint(out, uint64(len(cols)))
			for _, c := range cols {
				out = appendString(out, c)
				v := m.Values[c]
				if v.Null {
					out = append(out, 1)
					continue
				}
				out = append(out, 0)
				out = binary.BigEndian.AppendUint64(out, math.Float64bits(v.F))
			}
		case ensemble.OpDelete:
			out = append(out, opDelete)
			out = appendString(out, m.Table)
			out = binary.BigEndian.AppendUint64(out, math.Float64bits(m.PK))
		}
	}
	return out
}

// DecodeMutations parses a record payload written by EncodeMutations.
func DecodeMutations(b []byte) ([]ensemble.Mutation, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	// Every mutation occupies at least 2 bytes (op + empty table name), so
	// a count beyond that is a lie — reject it before preallocating.
	if n > uint64(len(b))/2+1 {
		return nil, errTruncated()
	}
	muts := make([]ensemble.Mutation, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(b) < 1 {
			return nil, errTruncated()
		}
		op := b[0]
		b = b[1:]
		var tbl string
		tbl, b, err = readString(b)
		if err != nil {
			return nil, err
		}
		switch op {
		case opInsert:
			var nc uint64
			nc, b, err = readUvarint(b)
			if err != nil {
				return nil, err
			}
			if nc > uint64(len(b))/2+1 {
				return nil, errTruncated()
			}
			values := make(map[string]table.Value, nc)
			for j := uint64(0); j < nc; j++ {
				var col string
				col, b, err = readString(b)
				if err != nil {
					return nil, err
				}
				if len(b) < 1 {
					return nil, errTruncated()
				}
				null := b[0] == 1
				b = b[1:]
				if null {
					values[col] = table.Null()
					continue
				}
				if len(b) < 8 {
					return nil, errTruncated()
				}
				values[col] = table.Float(math.Float64frombits(binary.BigEndian.Uint64(b[:8])))
				b = b[8:]
			}
			muts = append(muts, ensemble.Mutation{Op: ensemble.OpInsert, Table: tbl, Values: values})
		case opDelete:
			if len(b) < 8 {
				return nil, errTruncated()
			}
			pk := math.Float64frombits(binary.BigEndian.Uint64(b[:8]))
			b = b[8:]
			muts = append(muts, ensemble.Mutation{Op: ensemble.OpDelete, Table: tbl, PK: pk})
		default:
			return nil, fmt.Errorf("wal: unknown mutation op %d", op)
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after mutation group", len(b))
	}
	return muts, nil
}

func appendString(out []byte, s string) []byte {
	out = binary.AppendUvarint(out, uint64(len(s)))
	return append(out, s...)
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errTruncated()
	}
	return v, b[n:], nil
}

func readString(b []byte) (string, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(b)) < n {
		return "", nil, errTruncated()
	}
	return string(b[:n]), b[n:], nil
}

func errTruncated() error { return fmt.Errorf("wal: truncated mutation payload") }
