package deepdb

// export_test.go hands the external test package (deepdb_test) the four
// settings nothing that ships selects: production runs the defaults of
// internal/shard, while the backpressure and chaos suites need a one-slot
// queue and millisecond retry/breaker/probe timing to finish in test time.
// They are Options only in the test build.

import "time"

// WithUpdateQueueSize bounds the update queue (default
// 1024 operations; an Update(rows...) call occupies one slot). When the
// queue is full, Insert/Delete/Update block until the background applier
// catches up — backpressure instead of unbounded memory.
func WithUpdateQueueSize(n int) Option {
	return func(c *config) { c.queueSize = n }
}

// WithPeerRetries sets the per-request attempt budget and base backoff for
// replica /eval calls (defaults live in internal/shard: 3 attempts, 25ms
// jittered exponential backoff). Non-positive values keep the defaults.
func WithPeerRetries(attempts int, backoff time.Duration) Option {
	return func(c *config) {
		c.peerAttempts = attempts
		c.peerBackoff = backoff
	}
}

// WithPeerBreaker configures the per-peer circuit breaker: `threshold`
// consecutive failures open it for `cooldown`, during which requests to
// that replica fail fast to the local model; a health probe (or half-open
// trial) re-closes it after the peer heals. Non-positive values keep the
// defaults (5 failures, 2s cooldown).
func WithPeerBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *config) {
		c.peerBreakThresh = threshold
		c.peerBreakCooldown = cooldown
	}
}

// WithPeerProbeInterval sets how often the router actively probes each
// replica's /healthz (default 2s), feeding the per-peer breaker and the
// health surfaces even when no query traffic flows. d <= 0 disables
// active probing (the breaker then relies on query traffic alone).
func WithPeerProbeInterval(d time.Duration) Option {
	return func(c *config) {
		if d <= 0 {
			c.peerProbeDisabled = true
			return
		}
		c.peerProbeDisabled = false
		c.peerProbeInterval = d
	}
}
