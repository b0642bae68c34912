package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
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
// ran. Each is refused before anything is built, naming the field.
func TestWorkloadInputsValidated(t *testing.T) {
	for _, c := range []struct {
		flag, value, field string
	}{
		{"-load", "-1", "Load=-1"},
		{"-load", "0", "Load=0"},
		{"-hosts", "0", "HostsPerToR=0"},
		{"-duration", "0s", "Duration=0ns"},
		{"-alpha", "-1", "Alpha=-1"},
	} {
		status, stdout, stderr := ucmpsim(t, c.flag, c.value)
		if status == 0 {
			t.Errorf("%s %s: exit status 0; stdout: %s", c.flag, c.value, stdout)
		}
		if !strings.Contains(stderr, "harness: "+c.field) || strings.Contains(stderr, "goroutine") {
			t.Errorf("%s %s: stderr does not name the field in one line: %s", c.flag, c.value, stderr)
		}
		if stdout != "" {
			t.Errorf("%s %s: a run started before the input was checked: %s", c.flag, c.value, stdout)
		}
	}
}
