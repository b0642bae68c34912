package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary act as ucmpbench itself, so the exit-code
// test drives the real main without a separate build.
const runMainEnv = "UCMPBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestSelectExps(t *testing.T) {
	want, err := selectExps("fig9, table1")
	if err != nil || len(want) != 2 || !want["fig9"] || !want["table1"] {
		t.Fatalf("selectExps(list) = %v, %v", want, err)
	}
	all, err := selectExps("all")
	if err != nil || !all["fig6a"] || all["scale"] || len(all) != len(allExps)-len(heavyExps) {
		t.Fatalf("selectExps(all) = %v, %v", all, err)
	}
	for _, spec := range []string{"bogus", "fig9,fgi8", "fig9,", ""} {
		if _, err := selectExps(spec); err == nil {
			t.Errorf("selectExps(%q) accepted an unknown id", spec)
		}
	}
	_, err = selectExps("fig9,fgi8,nope")
	if err == nil || !strings.Contains(err.Error(), `"fgi8", "nope"`) || !strings.Contains(err.Error(), "fig17") {
		t.Fatalf("error should name every unknown id and the valid list: %v", err)
	}
}

// A typo in -exp used to run nothing and exit 0. It must exit 2 before any
// exhibit runs, naming the bad id on stderr.
func TestUnknownExpExitsNonZero(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-exp", "table1,bogus")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; stderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `"bogus"`) || !strings.Contains(stderr.String(), "table1") {
		t.Fatalf("stderr does not name the bad id and the valid list: %s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("an exhibit ran before the id check: %s", stdout.String())
	}
}
