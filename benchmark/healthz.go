package main

import (
	"encoding/json"
	"fmt"
)

// healthz is the part of the server's /healthz answer the harness reads.
// Counters are cumulative since process start; the harness reports their
// deltas across the measured window, so work is counted where it happens.
type healthz struct {
	Status  string `json:"status"`
	Updates struct {
		Generation           uint64 `json:"generation"`
		QueueDepth           int    `json:"queue_depth"`
		Enqueued             uint64 `json:"enqueued"`
		Applied              uint64 `json:"applied"`
		Batches              uint64 `json:"batches"`
		Errors               uint64 `json:"errors"`
		ApplyLagMicros       int64  `json:"apply_lag_us"`
		PlanCacheHits        uint64 `json:"plan_cache_hits"`
		PlanCacheMisses      uint64 `json:"plan_cache_misses"`
		ResultCacheHits      uint64 `json:"result_cache_hits"`
		ResultCacheMisses    uint64 `json:"result_cache_misses"`
		ResultCacheEvictions uint64 `json:"result_cache_evictions"`
		WAL                  *struct {
			Appended  uint64 `json:"appended"`
			Synced    uint64 `json:"synced"`
			Replayed  uint64 `json:"replayed"`
			Segments  int    `json:"segments"`
			SizeBytes int64  `json:"size_bytes"`
		} `json:"wal"`
	} `json:"updates"`
}

func fetchHealthz(c *conn) (healthz, error) {
	var h healthz
	status, body, err := c.get("/healthz")
	if err != nil {
		return h, fmt.Errorf("healthz: %w", err)
	}
	if status != 200 {
		return h, fmt.Errorf("healthz: status %d", status)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return h, fmt.Errorf("healthz: %w", err)
	}
	return h, nil
}

// healthDelta is what happened between two /healthz readings.
type healthDelta struct {
	generations          uint64
	applied, batches     uint64
	errors               uint64
	planHits, planMisses uint64
	resHits, resMisses   uint64
	resEvictions         uint64
	walAppended          uint64
	walSynced            uint64
}

func deltaHealthz(before, after healthz) healthDelta {
	b, a := before.Updates, after.Updates
	d := healthDelta{
		generations:  a.Generation - b.Generation,
		applied:      a.Applied - b.Applied,
		batches:      a.Batches - b.Batches,
		errors:       a.Errors - b.Errors,
		planHits:     a.PlanCacheHits - b.PlanCacheHits,
		planMisses:   a.PlanCacheMisses - b.PlanCacheMisses,
		resHits:      a.ResultCacheHits - b.ResultCacheHits,
		resMisses:    a.ResultCacheMisses - b.ResultCacheMisses,
		resEvictions: a.ResultCacheEvictions - b.ResultCacheEvictions,
	}
	if a.WAL != nil && b.WAL != nil {
		d.walAppended = a.WAL.Appended - b.WAL.Appended
		d.walSynced = a.WAL.Synced - b.WAL.Synced
	}
	return d
}

// ratio returns num/(num+rest), 0 when nothing was counted.
func ratio(num, rest uint64) float64 {
	if num+rest == 0 {
		return 0
	}
	return float64(num) / float64(num+rest)
}

// per returns num/den, 0 when den is 0.
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
