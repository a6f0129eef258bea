package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"strings"
	"testing"
)

// requestFromFlags parses one command line through a fresh binder, the
// way rofsim and rofs-client do.
func requestFromFlags(t *testing.T, args string) (RunRequest, error) {
	t.Helper()
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	rf := AddRunFlags(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatalf("%s: %v", args, err)
	}
	return rf.Request()
}

// TestRunFlagsParity: a command line and a request body describe a run in
// one vocabulary with one validator. Values it cannot honor are errors on
// the CLIs and 400s on the server — never a panic, never a silent default
// — and a full command line keys identically to its JSON body.
func TestRunFlagsParity(t *testing.T) {
	_, c := newTestServer(t, Options{Jobs: 1})
	for _, tc := range []struct {
		args string
		// binder: refused by Request itself. An explicit zero has no JSON
		// spelling of its own (zero reads as the default), so there is no
		// body to post.
		binder bool
	}{
		{args: "-policy rbuddy -sizes 9"},
		{args: "-policy extent -fit bogus"},
		{args: "-scale huge"},
		{args: "-layout bogus"},
		{args: "-seed 0", binder: true},
		{args: "-grow -1"},
		{args: "-disks -3"},
		{args: "-policy fixed -block 17"},
		{args: "-workload TP -test app -instances -1 -routing bogus"},
		{args: "-workload TP -test app -instances -1"},
		{args: "-par -3"},
		{args: "-workload TP -test app -routing least"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			req, err := requestFromFlags(t, tc.args)
			if tc.binder {
				if err == nil {
					t.Fatalf("Request accepted %q", tc.args)
				}
				return
			}
			if err != nil {
				t.Fatalf("Request: %v", err)
			}
			if _, err := req.Spec(); err == nil {
				t.Errorf("Spec accepted %q", tc.args)
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(c.BaseURL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("server answered %s with %d, want 400", body, resp.StatusCode)
			}
		})
	}

	flags, err := requestFromFlags(t, "-policy rbuddy -sizes 3 -grow 1.5 -clustered=false"+
		" -workload TP -test app -scale full -seed 7 -disks 4 -layout RAID5 -stripe 48K -max-sim 30000"+
		" -transient 0.001 -fail-at 5000 -rebuild -instances 2 -routing least -fault-instance 1"+
		" -rate 200 -compact tiered")
	if err != nil {
		t.Fatal(err)
	}
	var body RunRequest
	dec := json.NewDecoder(strings.NewReader(`{"policy":"rbuddy","sizes":3,"grow":1.5,"clustered":false,
		"workload":"TP","test":"app","scale":"full","seed":7,"disks":4,"layout":"raid5",
		"stripe_bytes":49152,"max_sim_ms":30000,
		"faults":{"transient_prob":0.001,"fail_at_ms":5000,"rebuild":true},
		"cluster":{"instances":2,"routing":"least","fault_instance":1},
		"arrivals":{"rate_per_s":200},"compaction":{"policy":"tiered"}}`))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		t.Fatal(err)
	}
	a, err := flags.Spec()
	if err != nil {
		t.Fatal(err)
	}
	b, err := body.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("flag line and JSON body key differently:\nflags: %s\nbody:  %s", a.Key(), b.Key())
	}
}
