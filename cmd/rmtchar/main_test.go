package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// rmtchar runs the built command and returns its stdout, stderr and
// whether it exited zero.
func rmtchar(t *testing.T, bin string, args ...string) (string, string, bool) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err != nil {
		if _, exited := err.(*exec.ExitError); !exited {
			t.Fatal(err)
		}
	}
	return stdout.String(), stderr.String(), err == nil
}

// TestSystemFlag pins -system resolution: every system spelling resolves
// to the system it names, and an unknown name is an error, never a silent
// UVM-opt run.
func TestSystemFlag(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "rmtchar")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	if out, errOut, ok := rmtchar(t, bin, "-workload", "fir", "-system", "bogus"); ok || !strings.Contains(errOut, `unknown system "bogus"`) {
		t.Errorf("unknown system: exit ok=%v, stderr %q, stdout %q", ok, errOut, out)
	}
	// FIR has no No-UVM variant; the run must fail naming the system
	// rather than characterize UVM-opt under the wrong label.
	if _, errOut, ok := rmtchar(t, bin, "-workload", "fir", "-system", "No-UVM"); ok || !strings.Contains(errOut, "No-UVM") {
		t.Errorf("No-UVM: exit ok=%v, stderr %q", ok, errOut)
	}
	out, errOut, ok := rmtchar(t, bin, "-workload", "fir", "-system", "discard")
	if !ok || !strings.Contains(out, "under UvmDiscard at 200%") {
		t.Errorf("discard alias: exit ok=%v, stdout %q, stderr %q", ok, out, errOut)
	}
	// Registry aliases resolve, and long names keep the 8-wide row label.
	out, errOut, ok = rmtchar(t, bin, "-workload", "radixsort", "-system", "UVM-opt", "-ovsp", "0")
	if !ok || !strings.Contains(out, "\nradix    ") {
		t.Errorf("radixsort: exit ok=%v, stdout %q, stderr %q", ok, out, errOut)
	}
}
