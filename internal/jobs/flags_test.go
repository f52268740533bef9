package jobs

import (
	"encoding/json"
	"flag"
	"io"
	"strings"
	"testing"
)

// parseSpec binds the shared run-description flags on a fresh flag set,
// plus one caller-owned flag (like pcnsim's -json), parses args and
// returns the Spec they describe.
func parseSpec(t *testing.T, args ...string) (Spec, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	spec := SpecFlags(fs)
	fs.Bool("json", false, "a flag the calling command owns")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return spec()
}

func TestParseOutages(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string
		want []OutageSpec
		err  string
	}{
		{"single", "100:200", []OutageSpec{{Start: 100, End: 200}}, ""},
		{"multiple", "100:200,5000:5500",
			[]OutageSpec{{Start: 100, End: 200}, {Start: 5000, End: 5500}}, ""},
		{"spaces", " 1 : 2 ", []OutageSpec{{Start: 1, End: 2}}, ""},
		{"zero start", "0:10", []OutageSpec{{Start: 0, End: 10}}, ""},
		{"no colon", "100", nil, "not start:end"},
		{"garbage start", "x:200", nil, "invalid syntax"},
		{"garbage end", "100:y", nil, "invalid syntax"},
		{"inverted", "200:100", nil, "inverted or empty"},
		{"empty window", "100:100", nil, "inverted or empty"},
		{"negative start", "-5:10", nil, "negative slot"},
		{"negative both", "-10:-5", nil, "negative slot"},
		{"bad second window", "100:200,300:250", nil, "inverted or empty"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseOutages(tc.in)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("window %d = %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestScenarioFlagConflicts checks the -scenario guard: every model
// flag is caught, in flag spelling and registration order, and the
// run-shape flags — plus a flag the calling command owns — pass.
func TestScenarioFlagConflicts(t *testing.T) {
	if _, err := parseSpec(t, "-scenario", "baseline"); err != nil {
		t.Errorf("bare scenario conflicts: %v", err)
	}
	spec, err := parseSpec(t, "-scenario", "baseline", "-terminals", "7", "-slots", "90",
		"-seed", "3", "-shards", "2", "-engine", "des", "-telemetry-every", "30", "-d", "2", "-json")
	if err != nil {
		t.Fatalf("run-shape flags reported as conflicts: %v", err)
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("run-shape scenario spec does not validate: %v", err)
	}

	_, err = parseSpec(t, "-scenario", "baseline",
		"-outage", "1:2", "-scheme", "timer", "-q", "0.1", "-hetero")
	const want = "conflicting flag(s): -q, -hetero, -scheme, -outage"
	if err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("err = %v, want suffix %q", err, want)
	}

	for _, args := range [][]string{
		{"-model", "1d"}, {"-q", "0.1"}, {"-c", "0.02"}, {"-U", "50"}, {"-V", "5"},
		{"-m", "2"}, {"-partition", "blanket"}, {"-dynamic"}, {"-reoptimize-every", "500"},
		{"-hetero"}, {"-scheme", "timer"}, {"-scheme-param", "9"}, {"-loss", "0.1"},
		{"-poll-loss", "0.1"}, {"-reply-loss", "0.1"}, {"-update-retries", "1"},
		{"-ack-timeout", "4"}, {"-page-retries", "1"}, {"-outage", "1:2"},
	} {
		_, err := parseSpec(t, append([]string{"-scenario", "baseline"}, args...)...)
		if want := "conflicting flag(s): " + args[0]; err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("%v: err = %v, want suffix %q", args, err, want)
		}
	}
}

// TestSpecFlagsJSON pins the Spec JSON the flags describe to the bytes
// pcnctl submit posted before the flag surface was shared: the same argv
// must keep describing the same job.
func TestSpecFlagsJSON(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-shards 2",
			`{"model":"2d","move_prob":0.05,"call_prob":0.01,"update_cost":100,"poll_cost":10,"max_delay":3,"terminals":20,"slots":200000,"shards":2,"seed":1,"engine":"cols"}`},
		{"-q 0.05 -c 0.01 -U 100 -V 10 -m 3 -terminals 50 -slots 100000 -shards 4 -seed 7 -loss 0.1 -update-retries 2 -telemetry-every 10000",
			`{"model":"2d","move_prob":0.05,"call_prob":0.01,"update_cost":100,"poll_cost":10,"max_delay":3,"terminals":50,"slots":100000,"shards":4,"faults":{"update_loss":0.1,"update_retries":2},"snapshot_every":10000,"seed":7,"engine":"cols"}`},
		{"-q 0.05 -c 0.01 -terminals 50 -slots 100000 -shards 4 -seed 7 -loss 0.1 -poll-loss 0.05 -reply-loss 0.05 -update-retries 2 -ack-timeout 3 -page-retries 2 -outage 5000:6000,20000:21000 -telemetry-every 10000",
			`{"model":"2d","move_prob":0.05,"call_prob":0.01,"update_cost":100,"poll_cost":10,"max_delay":3,"terminals":50,"slots":100000,"shards":4,"faults":{"update_loss":0.1,"poll_loss":0.05,"reply_loss":0.05,"update_retries":2,"ack_timeout":3,"page_retries":2,"outages":[{"start":5000,"end":6000},{"start":20000,"end":21000}]},"snapshot_every":10000,"seed":7,"engine":"cols"}`},
		{"-hetero -q 0.1 -c 0.02 -terminals 44 -slots 50000 -shards 3 -seed 13",
			`{"model":"2d","move_prob":0.1,"call_prob":0.02,"update_cost":100,"poll_cost":10,"max_delay":3,"fleet":{"groups":[{"move_prob":0.05,"call_prob":0.02},{"move_prob":0.06,"call_prob":0.02},{"move_prob":0.06999999999999999,"call_prob":0.02},{"move_prob":0.08000000000000002,"call_prob":0.02},{"move_prob":0.09000000000000001,"call_prob":0.02},{"move_prob":0.1,"call_prob":0.02},{"move_prob":0.11000000000000001,"call_prob":0.02},{"move_prob":0.12,"call_prob":0.02},{"move_prob":0.13,"call_prob":0.02},{"move_prob":0.13999999999999999,"call_prob":0.02},{"move_prob":0.15000000000000002,"call_prob":0.02}]},"terminals":44,"slots":50000,"shards":3,"seed":13,"engine":"cols"}`},
		{"-scenario flash-crowd -terminals 30 -slots 30000 -shards 2 -telemetry-every 500",
			`{"move_prob":0,"call_prob":0,"update_cost":0,"poll_cost":0,"scenario":"flash-crowd","terminals":30,"slots":30000,"shards":2,"snapshot_every":500,"seed":1,"engine":"cols"}`},
		{"-scenario mixed-fleet -d 2 -terminals 30 -slots 30000 -shards 2 -engine des",
			`{"move_prob":0,"call_prob":0,"update_cost":0,"poll_cost":0,"scenario":"mixed-fleet","terminals":30,"slots":30000,"shards":2,"threshold":2,"seed":1,"engine":"des"}`},
		{"-scheme timer -scheme-param 500 -terminals 30 -slots 30000 -shards 2",
			`{"model":"2d","move_prob":0.05,"call_prob":0.01,"update_cost":100,"poll_cost":10,"max_delay":3,"scheme":"timer","scheme_param":500,"terminals":30,"slots":30000,"shards":2,"seed":1,"engine":"cols"}`},
		{"-scheme movement -scheme-param 6 -model 1d -terminals 30 -slots 30000 -shards 2",
			`{"model":"1d","move_prob":0.05,"call_prob":0.01,"update_cost":100,"poll_cost":10,"max_delay":3,"scheme":"movement","scheme_param":6,"terminals":30,"slots":30000,"shards":2,"seed":1,"engine":"cols"}`},
		{"-dynamic -reoptimize-every 500 -partition blanket -d 3 -terminals 30 -slots 30000 -shards 2 -engine fast",
			`{"model":"2d","move_prob":0.05,"call_prob":0.01,"update_cost":100,"poll_cost":10,"max_delay":3,"partition":"blanket","terminals":30,"slots":30000,"shards":2,"threshold":3,"dynamic":true,"reoptimize_every":500,"seed":1,"engine":"fast"}`},
		{"-model 1d -m 0 -terminals 30 -slots 30000 -shards 2 -d 0",
			`{"model":"1d","move_prob":0.05,"call_prob":0.01,"update_cost":100,"poll_cost":10,"terminals":30,"slots":30000,"shards":2,"threshold":0,"seed":1,"engine":"cols"}`},
	} {
		spec, err := parseSpec(t, strings.Fields(tc.args)...)
		if err != nil {
			t.Errorf("%s: %v", tc.args, err)
			continue
		}
		got, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.args, got, tc.want)
		}
	}
}
