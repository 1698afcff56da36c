// Package drift maintains per-RSPN staleness statistics for deepdb's
// background re-learning. The paper's incremental update rule (Section
// 5.2) keeps models exact for insert/delete streams drawn from the learned
// distribution, but warns that a drifting distribution degrades estimate
// quality; the fix is to regenerate the affected RSPN offline. This
// package supplies the trigger: cheap per-column moment statistics
// (count/sum/sum-of-squares) maintained on every applied mutation, diffed
// against a baseline captured when the member was (re-)learned.
//
// Two signals are tracked per ensemble member:
//
//   - the fraction of rows mutated since its baseline (volume signal), and
//   - the largest σ-normalized mean shift over its tables' attribute
//     columns (distribution signal).
//
// Either crossing its configured threshold marks the member for
// re-learning. A Set is shared by pointer across copy-on-write ensemble
// clones — like the write-path PK index — so statistics accumulate across
// snapshot publications; the applier mutates it under the facade's apply
// lock and readers (stats, the re-learn trigger) take the Set's own mutex.
package drift

import (
	"math"
	"sort"
	"sync"

	"repro/internal/table"
)

// moments are running first and second moments of one column's non-NULL
// values.
type moments struct {
	count float64
	sum   float64
	sumSq float64
}

func (m moments) mean() float64 { return m.sum / m.count }

func (m moments) std() float64 {
	v := m.sumSq/m.count - m.mean()*m.mean()
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// memberState is the per-ensemble-member staleness state.
type memberState struct {
	tables []string
	// mutated counts mutations applied to the member's tables since its
	// baseline (inserts and deletes both count one).
	mutated uint64
	// baseRows and base are the row counts and column moments captured
	// when the member was learned (or last re-learned).
	baseRows float64
	base     map[string]map[string]moments
	// relearns counts completed re-learns of this member.
	relearns uint64
}

// Set tracks staleness for every member of one ensemble.
type Set struct {
	mu sync.Mutex
	// cols fixes which columns are tracked per table (attribute columns:
	// keys and synthetic tuple-factor columns drift trivially and are
	// excluded by the caller).
	cols map[string][]string
	// cur holds the live moments, updated by RecordRow.
	cur map[string]map[string]moments
	// rows holds the live (tombstone-corrected) row count per table.
	rows map[string]float64
	// members is indexed like the ensemble's RSPN slice.
	members []memberState
}

// New builds a Set by scanning the given tables once: the scan seeds both
// the live moments and every member's baseline. cols lists the tracked
// columns per table; memberTables lists each ensemble member's table set,
// in ensemble order.
func New(tables map[string]*table.Table, cols map[string][]string, memberTables [][]string) *Set {
	s := &Set{
		cols: cols,
		cur:  make(map[string]map[string]moments, len(cols)),
		rows: make(map[string]float64, len(cols)),
	}
	//deepdb:orderinvariant builds independent per-table map entries; no cross-iteration state
	for name, colNames := range cols {
		t := tables[name]
		if t == nil {
			continue
		}
		s.rows[name] = float64(t.NumRows())
		cm := make(map[string]moments, len(colNames))
		for _, cn := range colNames {
			c := t.Column(cn)
			if c == nil {
				continue
			}
			var m moments
			for i := 0; i < c.Len(); i++ {
				if c.IsNull(i) {
					continue
				}
				v := c.Data[i]
				m.count++
				m.sum += v
				m.sumSq += v * v
			}
			cm[cn] = m
		}
		s.cur[name] = cm
	}
	s.members = make([]memberState, len(memberTables))
	for i, mt := range memberTables {
		s.members[i] = memberState{tables: append([]string(nil), mt...)}
		s.rebaseLocked(i)
	}
	return s
}

// rebaseLocked snapshots the current moments as member i's baseline.
func (s *Set) rebaseLocked(i int) {
	m := &s.members[i]
	m.mutated = 0
	m.baseRows = 0
	m.base = make(map[string]map[string]moments, len(m.tables))
	for _, tn := range m.tables {
		m.baseRows += s.rows[tn]
		cm := make(map[string]moments, len(s.cur[tn]))
		//deepdb:orderinvariant map-to-map copy; the result is independent of visit order
		for cn, mo := range s.cur[tn] {
			cm[cn] = mo
		}
		m.base[tn] = cm
	}
}

// RecordRow folds one mutated row into the statistics: sign +1 for an
// insert, -1 for a delete (called before the row is tombstoned, while its
// values are still readable). t is the table the row lives in — possibly a
// copy-on-write clone; only its cell values are read.
func (s *Set) RecordRow(tableName string, t *table.Table, rowIdx int, sign int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cm, ok := s.cur[tableName]
	if !ok {
		return
	}
	s.rows[tableName] += float64(sign)
	for _, cn := range s.cols[tableName] {
		c := t.Column(cn)
		if c == nil || c.IsNull(rowIdx) {
			continue
		}
		v := c.Data[rowIdx]
		m := cm[cn]
		m.count += float64(sign)
		m.sum += float64(sign) * v
		m.sumSq += float64(sign) * v * v
		cm[cn] = m
	}
	for i := range s.members {
		for _, tn := range s.members[i].tables {
			if tn == tableName {
				s.members[i].mutated++
				break
			}
		}
	}
}

// Score is one member's staleness reading. The facade publishes it as
// deepdb.DriftStat and /healthz marshals it: the JSON tags are that
// endpoint's wire contract.
type Score struct {
	// Tables is the member's table set.
	Tables []string `json:"tables"`
	// Mutated counts mutations on those tables since the baseline;
	// MutatedFraction normalizes by the baseline row count.
	Mutated         uint64  `json:"mutated"`
	MutatedFraction float64 `json:"mutated_fraction"`
	// MaxShift is the largest σ-normalized column mean shift against the
	// baseline; ShiftColumn names the column attaining it.
	MaxShift    float64 `json:"max_shift"`
	ShiftColumn string  `json:"shift_column,omitempty"`
	// Relearns counts completed re-learns of this member.
	Relearns uint64 `json:"relearns"`
}

// Scores reports every member's current staleness, in ensemble order.
func (s *Set) Scores() []Score {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Score, len(s.members))
	for i := range s.members {
		out[i] = s.scoreLocked(i)
	}
	return out
}

func (s *Set) scoreLocked(i int) Score {
	m := &s.members[i]
	sc := Score{Tables: m.tables, Mutated: m.mutated, Relearns: m.relearns}
	sc.MutatedFraction = float64(m.mutated) / math.Max(m.baseRows, 1)
	for _, tn := range m.tables {
		// Sorted column order so a tie on MaxShift reports the same
		// ShiftColumn on every run.
		cols := make([]string, 0, len(m.base[tn]))
		for cn := range m.base[tn] {
			cols = append(cols, cn)
		}
		sort.Strings(cols)
		for _, cn := range cols {
			base := m.base[tn][cn]
			if base.count < 2 {
				continue
			}
			cur, ok := s.cur[tn][cn]
			if !ok || cur.count < 1 {
				continue
			}
			std := base.std()
			if std <= 0 {
				// A constant column: any new value is an infinite shift;
				// fall back to a tiny scale so the signal still fires.
				std = math.Max(math.Abs(base.mean())*1e-9, 1e-9)
			}
			shift := math.Abs(cur.mean()-base.mean()) / std
			if shift > sc.MaxShift {
				sc.MaxShift = shift
				sc.ShiftColumn = cn
			}
		}
	}
	return sc
}

// Thresholds configures the re-learn trigger; a field <= 0 disables that
// signal.
type Thresholds struct {
	// MutatedFraction trips when a member's mutated-row fraction exceeds
	// it (e.g. 0.2 = re-learn after 20% of the baseline rows changed).
	MutatedFraction float64
	// MeanShift trips when any tracked column's mean moved more than this
	// many baseline standard deviations.
	MeanShift float64
}

// Enabled reports whether any signal is armed.
func (t Thresholds) Enabled() bool { return t.MutatedFraction > 0 || t.MeanShift > 0 }

// Trip returns the most-drifted member exceeding the thresholds, or ok ==
// false when none does. "Most drifted" is the largest ratio of signal to
// its threshold, so a member far past the volume trigger outranks one
// barely past the shift trigger.
func (s *Set) Trip(th Thresholds) (int, Score, bool) {
	if !th.Enabled() {
		return 0, Score{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	best, bestRatio := -1, 0.0
	var bestScore Score
	for i := range s.members {
		sc := s.scoreLocked(i)
		ratio := 0.0
		if th.MutatedFraction > 0 {
			ratio = math.Max(ratio, sc.MutatedFraction/th.MutatedFraction)
		}
		if th.MeanShift > 0 {
			ratio = math.Max(ratio, sc.MaxShift/th.MeanShift)
		}
		if ratio >= 1 && ratio > bestRatio {
			best, bestRatio, bestScore = i, ratio, sc
		}
	}
	if best < 0 {
		return 0, Score{}, false
	}
	return best, bestScore, true
}

// MutationCount returns member i's mutation counter.
func (s *Set) MutationCount(i int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.members[i].mutated
}

// ResetMember re-baselines member i after a completed re-learn: its
// staleness drops to zero against the state it was just learned from.
func (s *Set) ResetMember(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rebaseLocked(i)
	s.members[i].relearns++
}

// Relearns sums the completed re-learn count over all members.
func (s *Set) Relearns() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for i := range s.members {
		n += s.members[i].relearns
	}
	return n
}
