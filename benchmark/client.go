package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection driven by a single goroutine:
// write a pre-rendered request, read the response, repeat. It is
// deliberately thinner than net/http's Transport (no per-connection
// goroutines, no pooling) so that on a two-core box the generator takes as
// little of the server's CPU as it can.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
	// sent and received count bytes on the wire (headers included).
	sent, received int64
}

type countingReader struct {
	r io.Reader
	n *int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.n += int64(n)
	return n, err
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	cn := &conn{c: c}
	cn.br = bufio.NewReaderSize(countingReader{c, &cn.received}, 64<<10)
	return cn, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
	}
}

// rawRequest renders a complete HTTP/1.1 request once, so the timed loop
// only writes bytes.
func rawRequest(method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: deepdb-bench\r\n", method, path)
	if method == http.MethodPost {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// sqlRequest renders the POST of one literal SQL statement.
func sqlRequest(path, sql string) []byte {
	body, _ := json.Marshal(struct { //nolint:errcheck // a string field cannot fail to marshal
		SQL string `json:"sql"`
	}{sql})
	return rawRequest(http.MethodPost, path, body)
}

// do sends one pre-rendered request and returns the status and body. The
// returned body is only valid until the next call.
func (c *conn) do(raw []byte) (int, []byte, error) {
	// A request that outlives this deadline is a failure, not a hang.
	if err := c.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	n, err := c.c.Write(raw)
	c.sent += int64(n)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// get and post are the control-plane helpers (healthz, flush).
func (c *conn) get(path string) (int, []byte, error) {
	return c.do(rawRequest(http.MethodGet, path, nil))
}

func (c *conn) post(path string, body string) (int, []byte, error) {
	return c.do(rawRequest(http.MethodPost, path, []byte(body)))
}

// scanFloat extracts the number following key (`"name":`) in a flat JSON
// object without decoding the rest — the closed-loop reader checks every
// /estimate answer and must stay cheap next to a ~100µs request.
func scanFloat(body, key []byte) (float64, bool) {
	i := bytes.Index(body, key)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] != ',' && rest[j] != '}' {
		j++
	}
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:j])), 64)
	return v, err == nil
}

// estimate is the payload of an /estimate answer the harness compares.
type estimate struct {
	Value, CILow, CIHigh float64
}

var valueKey, ciLowKey, ciHighKey = []byte(`"value":`), []byte(`"ci_low":`), []byte(`"ci_high":`)

func parseEstimate(body []byte) (estimate, bool) {
	v, ok1 := scanFloat(body, valueKey)
	lo, ok2 := scanFloat(body, ciLowKey)
	hi, ok3 := scanFloat(body, ciHighKey)
	return estimate{v, lo, hi}, ok1 && ok2 && ok3
}

// groupRow is one row of a /query answer.
type groupRow struct {
	Key    []float64 `json:"key"`
	Value  float64   `json:"value"`
	CILow  float64   `json:"ci_low"`
	CIHigh float64   `json:"ci_high"`
}

func parseGroups(body []byte) ([]groupRow, bool) {
	var out struct {
		Groups []groupRow `json:"groups"`
		Error  string     `json:"error"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.Error != "" {
		return nil, false
	}
	return out.Groups, true
}

// clock lets the open-loop scheduler run against a fake in tests.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openSample is one open-loop request: its latency counted from the moment
// it was due (so a stall is charged to every request queued behind it) and
// how late the generator itself was in sending it.
type openSample struct {
	at   time.Duration // due time relative to the start of the schedule
	lat  time.Duration // completion - due
	late time.Duration // send - due
}

// runOpenLoop issues request i at start + i*interval for every due time
// before end, never skipping one: when the previous request overran, the
// next is sent immediately and its lateness recorded. send performs
// request i and reports whether it was acknowledged.
func runOpenLoop(clk clock, start, end time.Time, interval time.Duration, send func(i int) bool) (samples []openSample, acked []int) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return samples, acked
		}
		now := clk.Now()
		if now.Before(due) {
			clk.Sleep(due.Sub(now))
			now = clk.Now()
		}
		late := max(now.Sub(due), 0)
		if send(i) {
			acked = append(acked, i)
		}
		samples = append(samples, openSample{at: due.Sub(start), lat: clk.Now().Sub(due), late: late})
	}
}
