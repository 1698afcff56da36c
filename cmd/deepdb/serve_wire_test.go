package main

// serve_wire_test.go pins the exact response bytes of /query and /estimate
// — member order, omitempty behaviour, number rendering and the trailing
// newline — with only the elapsed_us measurement masked. The bodies were
// recorded while serve.go still copied every row into its own tagged
// structs, so they prove the facade types encode to the same wire format.

import (
	"net/http/httptest"
	"regexp"
	"testing"
)

var elapsedRE = regexp.MustCompile(`"elapsed_us":\d+`)

func TestServeWireBytes(t *testing.T) {
	db := serveFixture(t)
	srv := httptest.NewServer(newServeHandler(db, shipped(false)))
	defer srv.Close()
	for _, c := range []struct{ name, path, body, want string }{
		{"grouped query", "/query",
			`{"sql": "SELECT AVG(c_age) FROM customer WHERE c_age < 60 GROUP BY c_region"}`,
			`{"groups":[{"key":[0],"labels":["EU"],"value":38.5,"variance":6.914348049886622,"ci_low":33.346245703526996,"ci_high":43.653754296473004},` +
				`{"key":[1],"labels":["ASIA"],"value":38.5,"variance":6.914348049886622,"ci_low":33.346245703526996,"ci_high":43.653754296473004},` +
				`{"key":[2],"labels":["US"],"value":38.5,"variance":6.914348049886622,"ci_low":33.346245703526996,"ci_high":43.653754296473004}],"elapsed_us":0}` + "\n"},
		{"ungrouped query omits key and labels", "/query",
			`{"sql": "SELECT COUNT(*) FROM customer JOIN orders WHERE c_region = 'EU'"}`,
			`{"groups":[{"value":500,"variance":333.3333333333333,"ci_low":464.2161170968076,"ci_high":535.7838829031924}],"elapsed_us":0}` + "\n"},
		{"estimate", "/estimate",
			`{"sql": "SELECT COUNT(*) FROM customer JOIN orders WHERE c_age > ?", "params": [40]}`,
			`{"value":1849.9999999999998,"variance":2035.2555555555562,"ci_low":1761.5785635783827,"ci_high":1938.4214364216168,"elapsed_us":0}` + "\n"},
	} {
		resp, raw := rawPost(t, srv, c.path, c.body)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, raw)
		}
		if got := elapsedRE.ReplaceAllString(string(raw), `"elapsed_us":0`); got != c.want {
			t.Errorf("%s: body\n got  %q\n want %q", c.name, got, c.want)
		}
	}
}
