package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runMainEnv makes the test binary act as ucmpsim itself, so the tests drive
// the real main without a separate build.
const runMainEnv = "UCMPSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ucmpsim runs the real main with args and returns its exit status and
// output streams. Every run here takes well under a second; one that is still
// going after ten is killed and fails its test.
func ucmpsim(t *testing.T, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case ctx.Err() != nil:
		t.Fatalf("ucmpsim %v did not return within ten seconds", args)
	case err == nil:
	case errors.As(err, &exit):
		status = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return status, out.String(), errb.String()
}

// An unknown -transport used to die with a goroutine trace out of
// transport.(*Stack).Attach, after the fabric was built. It must fail the way
// -routing and -workload typos do: one line, exit status 1.
func TestUnknownTransportIsAnError(t *testing.T) {
	status, stdout, stderr := ucmpsim(t, "-transport", "foo", "-duration", "100us")
	if status != 1 {
		t.Fatalf("exit status %d, want 1; stderr: %s", status, stderr)
	}
	if !strings.Contains(stderr, `harness: unknown transport "foo"`) || !strings.Contains(stderr, "rotor") || !strings.Contains(stderr, "mptcp") {
		t.Fatalf("stderr does not name the bad value and the valid list: %s", stderr)
	}
	if strings.Contains(stderr, "goroutine") || strings.Contains(stderr, "panic") {
		t.Fatalf("stderr carries a panic trace: %s", stderr)
	}
	if stdout != "" {
		t.Fatalf("a run started before the transport was checked: %s", stdout)
	}
}

// The -transport help names every kind the flag accepts.
func TestTransportHelpListsEveryKind(t *testing.T) {
	_, _, stderr := ucmpsim(t, "-h")
	if !strings.Contains(stderr, "dctcp|ndp|tcp|rotor|mptcp") {
		t.Fatalf("-transport help does not list rotor and mptcp:\n%s", stderr)
	}
}

// -checkpoint-every without -checkpoint-dir used to run, write nothing and
// say nothing.
func TestCheckpointEveryWithoutDirIsNoted(t *testing.T) {
	status, stdout, stderr := ucmpsim(t, "-routing", "vlb", "-transport", "rotor", "-workload", "datamining",
		"-duration", "200us", "-checkpoint-every", "100us")
	if status != 0 {
		t.Fatalf("exit status %d; stderr: %s", status, stderr)
	}
	if !strings.Contains(stderr, "checkpointing off: CheckpointEvery set without CheckpointDir") {
		t.Fatalf("stderr does not say that nothing is being written: %s", stderr)
	}
	if !strings.Contains(stdout, "flows:") {
		t.Fatalf("the run did not complete: %s", stdout)
	}
}

// A negative -load walked the Poisson arrival clock backwards and generated
// flows until the machine ran out of memory; a zero -load, -hosts or
// -duration printed an empty FCT table with exit status 0; a negative -alpha
// ran, with or without an explicit -flows trace; a failure fraction outside
// [0,1] ran clamped, or not at all when negative; a negative -failat ran as
// 0; a runtime failure after the horizon ran as if none had been asked for;
// a window too short to draw a flow reported "100.0% completed"; a -gbps
// of NaN, Inf or 1e30 overflowed into "LinkBps=-9223372036854775808". Each
// is refused before anything runs, naming the field.
func TestWorkloadInputsValidated(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "flows.csv")
	if err := os.WriteFile(trace, []byte("id,src_host,dst_host,size_bytes,arrival_ns\n1,0,5,65536,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-load", "-1"}, "harness: Load=-1"},
		{[]string{"-load", "0"}, "harness: Load=0"},
		{[]string{"-hosts", "0"}, "harness: HostsPerToR=0"},
		{[]string{"-duration", "0s"}, "harness: Duration=0ns"},
		{[]string{"-alpha", "-1"}, "harness: Alpha=-1"},
		{[]string{"-flows", trace, "-alpha", "-1"}, "harness: Alpha=-1"},
		{[]string{"-flows", trace, "-alpha", "NaN"}, "harness: Alpha=NaN"},
		{[]string{"-faillinks", "1.5"}, "harness: link failure fraction 1.5"},
		{[]string{"-failtors", "1.7"}, "harness: ToR failure fraction 1.7"},
		{[]string{"-faillinks-rt", "-0.3"}, "harness: link failure fraction -0.3"},
		{[]string{"-maxflow", "-5"}, "harness: MaxFlowSize=-5"},
		{[]string{"-duration", "20us", "-relax", "-routing", "vlb"}, "harness: Relax is UCMP-only; Routing=vlb would ignore it"},
		{[]string{"-duration", "1us"}, "harness: Workload=websearch Duration=1.000us Load=0.4 generated no flow"},
		{[]string{"-failtors", "0.1", "-failat", "-1ms"}, "harness: failure at -1.000ms must not be negative"},
		{[]string{"-failtors", "0.5", "-failat", "5ms", "-duration", "20us"}, "harness: failure at 5.000ms is not before the horizon 80.000us"},
		{[]string{"-faillinks-rt", "0.1", "-failat", "80us", "-duration", "20us"}, "harness: failure at 80.000us is not before the horizon 80.000us"},
		{[]string{"-gbps", "NaN"}, "ucmpsim: -gbps NaN must be positive"},
		{[]string{"-gbps", "Inf"}, "ucmpsim: -gbps +Inf must be positive"},
		{[]string{"-gbps", "1e30"}, "ucmpsim: -gbps 1e+30 must be positive"},
		{[]string{"-gbps", "0"}, "ucmpsim: -gbps 0 must be positive"},
		{[]string{"-paper", "-tors", "7", "-gbps", "NaN"}, "ucmpsim: -paper fixes the fabric; drop -gbps, -tors"},
		{[]string{"-paper", "-uplinks", "6"}, "ucmpsim: -paper fixes the fabric; drop -uplinks"},
		{[]string{"-paper", "-hosts", "6", "-slice", "50us", "-reconf", "10ns"}, "ucmpsim: -paper fixes the fabric; drop -hosts, -reconf, -slice"},
	} {
		status, stdout, stderr := ucmpsim(t, c.args...)
		if status == 0 {
			t.Errorf("%v: exit status 0; stdout: %s", c.args, stdout)
		}
		if !strings.Contains(stderr, c.msg) || strings.Contains(stderr, "goroutine") {
			t.Errorf("%v: stderr does not name the field in one line: %s", c.args, stderr)
		}
		if stdout != "" {
			t.Errorf("%v: a run started before the input was checked: %s", c.args, stdout)
		}
	}
}

// A run whose horizon ends before the first 500 µs utilization sample used
// to print a mean utilization of 0.000; it prints n/a and says why.
func TestUtilizationWithoutSamples(t *testing.T) {
	for _, c := range []struct {
		duration, want string
	}{
		{"20us", "mean ToR-to-host util: n/a   mean ToR-to-ToR util: n/a (no sample before the horizon)\n"},
		{"300us", "mean ToR-to-host util: 0."},
	} {
		status, stdout, stderr := ucmpsim(t, "-duration", c.duration)
		if status != 0 {
			t.Fatalf("-duration %s: exit status %d; stderr: %s", c.duration, status, stderr)
		}
		if !strings.Contains(stdout, c.want) {
			t.Fatalf("-duration %s: stdout does not hold %q:\n%s", c.duration, c.want, stdout)
		}
	}
}

// A -flows trace is outside input: a host past the fabric used to panic in
// the transport, a negative one in the TCP sender, a repeated id in the
// network, a flow to its own host ran and printed "0.0% completed", and a
// header-only trace silently ran the Poisson workload instead. Each exits 1
// before anything runs, naming the flow or the trace.
func TestFlowTraceValidated(t *testing.T) {
	dir := t.TempDir()
	for i, c := range []struct {
		rows, msg string
	}{
		{"1,999,3,65536,0", "harness: flow 1: src_host 999 outside [0,32)"},
		{"1,-3,3,65536,0", "harness: flow 1: src_host -3 outside [0,32)"},
		{"1,0,3,65536,0\n1,4,5,65536,0", "harness: flow 1: duplicate id"},
		{"4,3,3,65536,0", "harness: flow 4: src_host and dst_host are both 3"},
		{"", "holds no flows"},
	} {
		trace := filepath.Join(dir, fmt.Sprintf("flows%d.csv", i))
		if err := os.WriteFile(trace, []byte("id,src_host,dst_host,size_bytes,arrival_ns\n"+c.rows+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		status, stdout, stderr := ucmpsim(t, "-flows", trace)
		if status != 1 {
			t.Errorf("%q: exit status %d, want 1; stderr: %s", c.rows, status, stderr)
		}
		if !strings.Contains(stderr, c.msg) || strings.Contains(stderr, "goroutine") {
			t.Errorf("%q: stderr does not name the flow in one line: %s", c.rows, stderr)
		}
		if stdout != "" {
			t.Errorf("%q: a run started before the trace was checked: %s", c.rows, stdout)
		}
	}
}

// A -flows run replays the trace instead of the Poisson workload, so its
// header names the trace and its flow count, not the -workload and -load it
// does not use: it used to print "on datamining ... load 90%".
func TestFlowTraceHeader(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "flows.csv")
	if err := os.WriteFile(trace, []byte("id,src_host,dst_host,size_bytes,arrival_ns\n1,0,5,65536,0\n2,3,8,4096,1000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	status, stdout, stderr := ucmpsim(t, "-flows", trace, "-workload", "datamining", "-load", "0.9")
	if status != 0 {
		t.Fatalf("exit status %d; stderr: %s", status, stderr)
	}
	header, _, _ := strings.Cut(stdout, "\n")
	if want := "ucmpsim: ucmp + dctcp on trace " + trace + " of 2 flows (16 ToRs, 32 hosts)"; header != want {
		t.Fatalf("header %q, want %q", header, want)
	}
}
