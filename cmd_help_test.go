package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// flagUsage extracts one flag's block from a cmd's -h output: the
// "  -name type" line and its indented description lines.
func flagUsage(help, name string) string {
	var b strings.Builder
	in := false
	for _, line := range strings.Split(help, "\n") {
		if strings.HasPrefix(line, "  -") {
			in = strings.HasPrefix(line, "  -"+name+" ")
		}
		if in {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestCmdPolicyHelp builds every cmd that takes a policy flag and checks
// that its -h text names each policy the flag accepts — the full
// registry, or for forecast the curve labels — so the help cannot drift
// from what the registry accepts.
func TestCmdPolicyHelp(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	cases := []struct {
		cmd, flag string
		want      []string
	}{
		{"hybridsim", "policy", core.Policies()},
		{"faultstudy", "policy", core.Policies()},
		{"appstudy", "policy", core.Policies()},
		{"wearmap", "policy", core.Policies()},
		{"tournament", "policies", core.Policies()},
		{"forecast", "policies", experiments.ForecastLabels()},
	}
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(os.PathSeparator)}
	for _, c := range cases {
		args = append(args, "./cmd/"+c.cmd)
	}
	if out, err := exec.Command(goBin, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	word := regexp.MustCompile(`[A-Za-z0-9_]+`)
	for _, c := range cases {
		out, _ := exec.Command(filepath.Join(dir, c.cmd), "-h").CombinedOutput()
		usage := flagUsage(string(out), c.flag)
		if usage == "" {
			t.Errorf("%s: no -%s flag in help:\n%s", c.cmd, c.flag, out)
			continue
		}
		named := map[string]bool{}
		for _, w := range word.FindAllString(usage, -1) {
			named[w] = true
		}
		for _, p := range c.want {
			if !named[p] {
				t.Errorf("%s -%s help does not name %s:\n%s", c.cmd, c.flag, p, usage)
			}
		}
	}
}
