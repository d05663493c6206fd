package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/scenario"
)

// daemon is one of the two ways the service runs a coordinator: the
// local daemon's Runner with in-process executors, or a fleet
// coordinator with one in-process fleet.Worker. Both serve handler.
type daemon struct {
	name  string
	start func(t *testing.T) (*Coordinator, http.Handler)
}

var daemons = []daemon{
	{"hbpsimd", func(t *testing.T) (*Coordinator, http.Handler) {
		r := scenario.NewRunner(scenario.Config{Workers: 1, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond}, nil)
		r.Start()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			r.Drain(ctx) //nolint:errcheck // best effort in cleanup
		})
		return r.Coordinator, scenario.NewServer(r)
	}},
	{"hbpfleet", func(t *testing.T) (*Coordinator, http.Handler) {
		c := NewCoordinator(fastCfg(), nil)
		c.Start()
		t.Cleanup(c.Stop)
		startWorker(t, c, WorkerConfig{Name: "w"})
		return c, NewServer(c)
	}},
}

// TestSpecMaxAttemptsOnBothDaemons: a spec's max_attempts bounds the
// infra retry on either daemon. The probe case crashes at seed attempt
// 1 and runs clean at 2: with max_attempts 1 it must end
// failed/infra-fault after one attempt, and with 3 it must pass at seed
// attempt 2 with the solo fingerprint of that seed.
func TestSpecMaxAttemptsOnBothDaemons(t *testing.T) {
	const prob = 0.5
	var base int64
	for s := int64(1); s < 200 && base == 0; s++ {
		ic := faults.InfraCrash{Prob: prob}
		if ic.Roll(scenario.AttemptSeed(s, 1)) && !ic.Roll(scenario.AttemptSeed(s, 2)) {
			base = s
		}
	}
	if base == 0 {
		t.Fatal("no seed with crash-then-clean rolls in 1..200")
	}
	clean := quickCase("probe", base)
	want := soloFingerprint(t, clean, scenario.AttemptSeed(base, 2))

	for _, row := range []struct {
		maxAttempts int
		state       scenario.State
		seedAttempt int
	}{
		{1, scenario.StateFailed, 1},
		{3, scenario.StatePassed, 2},
	} {
		for _, d := range daemons {
			t.Run(fmt.Sprintf("%s/max_attempts=%d", d.name, row.maxAttempts), func(t *testing.T) {
				c, _ := d.start(t)
				spec := clean
				spec.InfraCrashProb, spec.MaxAttempts = prob, row.maxAttempts
				suite, err := c.CreateSuite("probe")
				if err != nil {
					t.Fatal(err)
				}
				st, err := c.Submit(suite.ID, spec)
				if err != nil {
					t.Fatal(err)
				}
				got := waitTerminal(t, c, st.ID)
				if got.State != row.state || got.SeedAttempt != row.seedAttempt || got.Attempts != row.seedAttempt {
					t.Fatalf("max_attempts %d: %s at seed attempt %d after %d attempts (%+v), want %s at %d",
						row.maxAttempts, got.State, got.SeedAttempt, got.Attempts, got.Error, row.state, row.seedAttempt)
				}
				switch row.state {
				case scenario.StateFailed:
					if got.Error == nil || got.Error.Kind != scenario.ErrInfra {
						t.Fatalf("max_attempts %d: error %+v, want %s", row.maxAttempts, got.Error, scenario.ErrInfra)
					}
				case scenario.StatePassed:
					if got.Result.Fingerprint != want {
						t.Fatalf("max_attempts %d: fingerprint %s, want solo %s", row.maxAttempts, got.Result.Fingerprint, want)
					}
				}
			})
		}
	}
}

// TestPanicTrapdoorOffTheWire: panic_for_test is not part of the wire
// spec. A case posted with it to either daemon's POST
// /suites/{id}/cases runs as the same case without it, and passes.
func TestPanicTrapdoorOffTheWire(t *testing.T) {
	for _, d := range daemons {
		t.Run(d.name, func(t *testing.T) {
			c, h := d.start(t)
			post := func(path, body string, code int) []byte {
				t.Helper()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
				if rec.Code != code {
					t.Fatalf("POST %s = %d: %s, want %d", path, rec.Code, rec.Body, code)
				}
				return rec.Body.Bytes()
			}
			var created scenario.SuiteStatus
			if err := json.Unmarshal(post("/suites", `{"name":"trapdoor"}`, http.StatusCreated), &created); err != nil {
				t.Fatal(err)
			}
			var run scenario.RunStatus
			body := `{"name":"boom","panic_for_test":true,"tree":{"leaves":40,"duration":20,"seed":3}}`
			if err := json.Unmarshal(post("/suites/"+created.Suite.ID+"/cases", body, http.StatusAccepted), &run); err != nil {
				t.Fatal(err)
			}
			if got := waitTerminal(t, c, run.ID); got.State != scenario.StatePassed {
				t.Fatalf("wire case carrying panic_for_test: %s (%+v), want passed", got.State, got.Error)
			}
		})
	}
}
