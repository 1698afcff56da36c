// Package pipeline is a hardtimeout fixture: literal durations at the timeout
// sinks, named constants that pass, and justified suppressions.
package pipeline

import (
	"context"
	"net/http"
	"time"
)

// retryBackoff is the named home for the fixture's retry pause.
const retryBackoff = 25 * time.Millisecond

// LiteralSleep writes the backoff inline: flagged.
func LiteralSleep() {
	time.Sleep(250 * time.Millisecond) // want `hard-coded duration in time.Sleep`
}

// NamedSleep pauses for a named constant: allowed.
func NamedSleep() {
	time.Sleep(retryBackoff)
}

// VariableSleep pauses for a computed duration: allowed (no literal).
func VariableSleep(d time.Duration) {
	time.Sleep(d)
}

// LiteralAfter arms a timer with an inline duration: flagged.
func LiteralAfter() <-chan time.Time {
	return time.After(5 * time.Second) // want `hard-coded duration in time.After`
}

// NamedAfter arms a timer from a parameter: allowed.
func NamedAfter(d time.Duration) <-chan time.Time {
	return time.After(d)
}

// LiteralCtxTimeout caps the context with an inline budget: flagged.
func LiteralCtxTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, 10*time.Second) // want `hard-coded duration in context.WithTimeout`
}

// NamedCtxTimeout caps the context with a named budget: allowed.
func NamedCtxTimeout(ctx context.Context, budget time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, budget)
}

// LiteralClientTimeout bakes a wall-clock cap into the client — the exact
// bug class this analyzer exists for: flagged.
func LiteralClientTimeout() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second, // want `hard-coded duration in http.Client.Timeout`
	}
}

// UncappedClient leaves Timeout to per-request contexts: allowed.
func UncappedClient() *http.Client {
	return &http.Client{Transport: http.DefaultTransport}
}

// NamedClientTimeout uses the named constant: allowed.
func NamedClientTimeout() *http.Client {
	return &http.Client{Timeout: retryBackoff}
}

// Suppressed carries a reviewed justification: allowed.
func Suppressed() {
	//deepdb:hardtimeout fixture literal kept inline to exercise suppression
	time.Sleep(1 * time.Millisecond)
}

// ConversionLiteral hides the magic number inside a conversion — still a
// numeric literal reaching the sink: flagged.
func ConversionLiteral() {
	time.Sleep(time.Duration(1e9)) // want `hard-coded duration in time.Sleep`
}
