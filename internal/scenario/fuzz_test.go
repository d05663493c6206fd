package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
)

// fuzzEventLimit bounds each fuzzed run. It must reach past the attack
// start at 5 s, where attackers are built and started: that takes about
// 190 000 events on a tree of any size, because the legitimate load is
// a fixed share of the bottleneck.
const fuzzEventLimit = 250_000

// FuzzCaseSpec feeds arbitrary bytes through the wire decode into
// CaseSpec.Validate. Whatever Validate accepts must run without a
// panic: every accepted tree case of at most 1000 leaves goes through
// the panic-isolated executor under fuzzEventLimit. The seeds include
// on-off timings that used to validate and then panic at attack start.
func FuzzCaseSpec(f *testing.F) {
	for _, s := range []string{
		`{"name":"onoff-zero","tree":{"onoff":"0,0"}}`,
		`{"name":"onoff-negative-on","tree":{"onoff":"-1,5"}}`,
		`{"name":"onoff-negative-off","tree":{"onoff":"5,-1"}}`,
		`{"name":"small","tree":{"leaves":30,"attackers":5,"duration":20,"progressive":true,"onoff":"0.5,2"}}`,
		`{"name":"faults","tree":{"leaves":40,"attackers":6,"loss":0.1,"crash_rate":20,"auth":true,"byzantine":2}}`,
		`{"name":"fig","figure":{"fig":"5","scale":"quick"}}`,
		`{"name":"fig-kind","kind":"figure","figure":{"fig":"sharded","scale":"quick"}}`,
		`{"name":"fig-full","figure":{"fig":"internet","scale":"full"}}`,
		`{"name":"fig-unknown","figure":{"fig":"99"}}`,
		`{"name":"fig-bad-scale","figure":{"fig":"follower","scale":"huge"}}`,
		`{"name":"fig-missing","kind":"figure"}`,
		`{"name":"fig-as-tree","kind":"tree","figure":{"fig":"6"}}`,
		`{"name":"fig-max-events","figure":{"fig":"5","scale":"quick"},"max_events":1000}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec CaseSpec
		if json.Unmarshal(data, &spec) != nil || spec.Validate() != nil {
			return
		}
		if spec.EffectiveKind() != "tree" || spec.Tree != nil && spec.Tree.Leaves > 1000 {
			return
		}
		_, err := runAttempt(context.Background(), &spec, spec.BaseSeed(), fuzzEventLimit)
		var pe *panicError
		if errors.As(err, &pe) {
			t.Fatalf("Validate accepted %s, then the run panicked: %s\n%s", data, pe.value, pe.stack)
		}
	})
}

// FuzzSuiteSpec posts arbitrary bytes to POST /suites of the local
// daemon's handler. Whatever the body, the answer is 201 (created), 400
// (malformed or invalid), 413 (too large to journal) or 503 (queue
// full) — never a 500, never a panic. The runner is not started, so
// nothing an accepted suite asks for ever runs.
func FuzzSuiteSpec(f *testing.F) {
	for _, s := range []string{
		`{"name":"empty"}`,
		`{"name":"trees","cases":[{"name":"a","tree":{"leaves":30,"duration":20}},{"name":"b","tree":{"defense":"pushback","onoff":"1,2"}}]}`,
		`{"name":"dup","cases":[{"name":"a"},{"name":"a"}]}`,
		`{"name":"figs","cases":[{"name":"f5","figure":{"fig":"5","scale":"quick"}},{"name":"fi","kind":"figure","figure":{"fig":"internet","scale":"full"}}]}`,
		`{"name":"bad-fig","cases":[{"name":"x","figure":{"fig":"99"}}]}`,
		`{"name":"mixed","cases":[{"name":"x","kind":"figure"},{"name":"y","max_attempts":-1}]}`,
		`{"cases":[{"name":"x"}]}`,
		`{"name":"x","cases":null}`,
		`[]`,
		`{"name":`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer(NewRunner(Config{QueueCap: 4}, nil))
		rec := servePost(srv, "/suites", data)
		switch rec.Code {
		case http.StatusCreated, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST /suites %q = %d: %s", data, rec.Code, rec.Body)
		}
	})
}

// TestSpecIgnoresRetiredFields: a document written for an older spec,
// still naming an engine width, decodes and runs to the fingerprint
// the same case has without it.
func TestSpecIgnoresRetiredFields(t *testing.T) {
	fp := func(doc string) string {
		var spec CaseSpec
		if err := json.Unmarshal([]byte(doc), &spec); err != nil {
			t.Fatal(err)
		}
		res, err := RunCaseSolo(&spec, spec.BaseSeed())
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint
	}
	tree := `"leaves":30,"attackers":5,"duration":20,"seed":3`
	if a, b := fp(`{"name":"x","tree":{`+tree+`}}`), fp(`{"name":"x","tree":{`+tree+`,"shards":4}}`); a != b {
		t.Fatalf("fingerprint moved with a retired field: %s vs %s", a, b)
	}
}
