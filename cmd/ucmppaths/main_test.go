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

// runMainEnv makes the test binary act as ucmppaths itself, so the tests
// drive the real main without a separate build.
const runMainEnv = "UCMPPATHS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ucmppaths runs the real main with args and returns its exit status and
// output streams. Every run here takes well under a second; one that is still
// going after ten is killed and fails its test.
func ucmppaths(t *testing.T, args ...string) (status int, stdout, stderr string) {
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
		t.Fatalf("ucmppaths %v did not return within ten seconds", args)
	case err == nil:
	case errors.As(err, &exit):
		status = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return status, out.String(), errb.String()
}

func TestSelectExps(t *testing.T) {
	want, err := selectExps("fig14, table3")
	if err != nil || len(want) != 2 || !want["fig14"] || !want["table3"] {
		t.Fatalf("selectExps(list) = %v, %v", want, err)
	}
	for _, spec := range []string{"bogus", "tabel2", "fig5a,", ""} {
		if _, err := selectExps(spec); err == nil {
			t.Errorf("selectExps(%q) accepted an unknown id", spec)
		}
	}
	_, err = selectExps("fig5a,fgi5b,nope")
	if err == nil || !strings.Contains(err.Error(), `"fgi5b", "nope"`) || !strings.Contains(err.Error(), "sched") {
		t.Fatalf("error should name every unknown id and the valid list: %v", err)
	}
}

// A typo in -exp used to print nothing and exit 0 (-exp tabel2), or to drop
// the bad name and run the rest (-exp fig5a,bogus). Either must exit 2 before
// anything runs, with one line naming the bad id and the valid ones.
func TestUnknownExpExitsTwo(t *testing.T) {
	for _, spec := range []string{"tabel2", "fig14,bogus"} {
		status, stdout, stderr := ucmppaths(t, "-exp", spec)
		if status != 2 {
			t.Fatalf("-exp %s: exit status %d, want 2; stderr: %s", spec, status, stderr)
		}
		bad := spec[strings.LastIndex(spec, ",")+1:]
		if !strings.Contains(stderr, `"`+bad+`"`) || !strings.Contains(stderr, "table2") || strings.Count(stderr, "\n") != 1 {
			t.Fatalf("-exp %s: stderr is not one line naming the bad id and the valid list: %s", spec, stderr)
		}
		if stdout != "" {
			t.Fatalf("-exp %s: an experiment ran before the id check: %s", spec, stdout)
		}
	}
}

// -tors 7 used to die with a panic stack out of topo.MustFabric. It must fail
// with the fabric's one-line error, before any experiment runs.
func TestBadFabricIsOneLine(t *testing.T) {
	status, stdout, stderr := ucmppaths(t, "-tors", "7", "-exp", "fig14,sched")
	if status != 1 {
		t.Fatalf("exit status %d, want 1; stderr: %s", status, stderr)
	}
	if !strings.Contains(stderr, "NumToRs=7") || strings.Count(stderr, "\n") != 1 ||
		strings.Contains(stderr, "goroutine") || strings.Contains(stderr, "panic") {
		t.Fatalf("stderr is not the one-line fabric error: %s", stderr)
	}
	if stdout != "" {
		t.Fatalf("an experiment ran before the fabric was checked: %s", stdout)
	}
}

// Experiments that do not use the -tors/-uplinks fabric still run when it is
// invalid.
func TestFixedScaleExpIgnoresFabric(t *testing.T) {
	status, stdout, stderr := ucmppaths(t, "-tors", "7", "-exp", "fig14")
	if status != 0 || !strings.Contains(stdout, "Fig 14") {
		t.Fatalf("exit status %d; stdout: %s; stderr: %s", status, stdout, stderr)
	}
}
