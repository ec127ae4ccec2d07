package repro

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// cmdDir holds a binary of every command under cmd/, built once per test
// binary by builtCmds and removed by TestMain after the last test.
var cmdDir string

func TestMain(m *testing.M) {
	code := m.Run()
	if cmdDir != "" {
		os.RemoveAll(cmdDir)
	}
	os.Exit(code)
}

// builtCmds builds every command into cmdDir and returns each one's -h
// output, keyed by command name.
var builtCmds = sync.OnceValues(func() (map[string]string, error) {
	dir, err := os.MkdirTemp("", "repro-cmd")
	if err != nil {
		return nil, err
	}
	cmdDir = dir
	if out, err := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...").CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	help := map[string]string{}
	for _, b := range bins {
		out, _ := exec.Command(filepath.Join(dir, b.Name()), "-h").CombinedOutput()
		help[b.Name()] = string(out)
	}
	return help, nil
})

func cmdHelp(t *testing.T) map[string]string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	help, err := builtCmds()
	if err != nil {
		t.Fatal(err)
	}
	return help
}

// cmdPath returns the path of the built binary of cmd/<name>.
func cmdPath(t *testing.T, name string) string {
	t.Helper()
	cmdHelp(t)
	return filepath.Join(cmdDir, name)
}

// flagUsage extracts one flag's block from a cmd's -h output: the
// "  -name type" line and its indented description lines.
func flagUsage(help, name string) string {
	var b strings.Builder
	in := false
	for _, line := range strings.Split(help, "\n") {
		if strings.HasPrefix(line, "  -") {
			in = line == "  -"+name || strings.HasPrefix(line, "  -"+name+" ")
		}
		if in && (strings.HasPrefix(line, "  -") || strings.HasPrefix(line, "    \t")) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestCmdPolicyHelp checks that the -h text of every cmd that takes a
// policy flag names each policy the flag accepts — the full registry, or
// for forecast the curve labels — so the help cannot drift from what the
// registry accepts.
func TestCmdPolicyHelp(t *testing.T) {
	help := cmdHelp(t)
	cases := []struct {
		cmd, flag string
		want      []string
	}{
		{"hybridsim", "policy", core.Policies()},
		{"faultstudy", "policy", core.Policies()},
		{"appstudy", "policy", core.Policies()},
		{"wearmap", "policy", core.Policies()},
		{"forecast", "policies", experiments.ForecastLabels()},
	}
	word := regexp.MustCompile(`[A-Za-z0-9_]+`)
	for _, c := range cases {
		usage := flagUsage(help[c.cmd], c.flag)
		if usage == "" {
			t.Errorf("%s: no -%s flag in help:\n%s", c.cmd, c.flag, help[c.cmd])
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

// TestCmdMixHelp checks that every cmd's -mix or -mixes help names the
// full mix range cliutil.ParseMixes and core accept, Table V plus the
// skewed-traffic scenarios, so no help text understates the mix table.
func TestCmdMixHelp(t *testing.T) {
	help := cmdHelp(t)
	want := fmt.Sprintf("1-%d", len(core.AllMixes()))
	flags := 0
	for cmd, h := range help {
		for _, name := range []string{"mix", "mixes"} {
			usage := flagUsage(h, name)
			if usage == "" {
				continue
			}
			flags++
			if !strings.Contains(usage, want) {
				t.Errorf("%s -%s help does not name %s:\n%s", cmd, name, want, usage)
			}
		}
	}
	if flags == 0 {
		t.Fatal("no cmd has a -mix or -mixes flag; the help parser is broken")
	}
}

// TestCmdSharedFlags checks every shared flag of every command against
// what core accepts: the flag is there, its default is
// core.DefaultConfig's, its help names the range Validate or the
// registry accepts, and every command that has it shows the same help,
// so no command's help can drift from core or from another command's.
func TestCmdSharedFlags(t *testing.T) {
	help := cmdHelp(t)
	def := core.DefaultConfig()
	mixRange := fmt.Sprintf("1-%d", len(core.AllMixes()))
	type want struct {
		def   string   // as -h prints it; "" when it prints none
		words []string // the usage must name each
	}
	shared := map[string]want{
		"policy":     {fmt.Sprintf("%q", def.PolicyName), core.Policies()},
		"mix":        {fmt.Sprint(def.MixID + 1), []string{mixRange}},
		"mixes":      {`"1,4"`, []string{mixRange, `"all"`}},
		"seed":       {fmt.Sprint(def.Seed), nil},
		"scale":      {fmt.Sprint(def.Scale), []string{fmt.Sprintf("(0, %d]", core.MaxScale)}},
		"sets":       {fmt.Sprint(def.LLCSets), []string{fmt.Sprintf("1-%d", core.MaxLLCSets)}},
		"sram":       {fmt.Sprint(def.SRAMWays), []string{fmt.Sprint(core.MaxLLCWays)}},
		"nvm":        {fmt.Sprint(def.NVMWays), []string{fmt.Sprint(core.MaxLLCWays)}},
		"l2kb":       {fmt.Sprint(def.L2SizeKB), []string{fmt.Sprintf("1-%d", core.MaxL2SizeKB)}},
		"cpth":       {fmt.Sprint(def.CPth), nil},
		"th":         {fmt.Sprint(def.Th), nil},
		"tw":         {fmt.Sprint(def.Tw), nil},
		"mean":       {fmt.Sprint(def.EnduranceMean), []string{fmt.Sprintf("(0, %g]", float64(core.MaxEnduranceMean))}},
		"cv":         {fmt.Sprint(def.EnduranceCV), []string{fmt.Sprintf("[0, %d]", core.MaxEnduranceCV)}},
		"nvmlat":     {fmt.Sprint(def.NVMLatencyFactor), []string{fmt.Sprintf("(0, %d]", core.MaxNVMLatencyFactor)}},
		"prefetch":   {"", nil},
		"rrip":       {"", nil},
		"checkevery": {"", nil},
		"coloring":   {"", []string{`"wear:interval=N,pairs=N"`, `"off"`}},
	}
	cmds := []struct {
		cmd   string
		flags []string
		local map[string]want // the command's own flags, checked the same way
	}{
		{"hybridsim", []string{"policy", "mix", "seed", "scale", "sets", "sram", "nvm", "l2kb",
			"cpth", "th", "tw", "cv", "nvmlat", "prefetch", "rrip", "checkevery", "coloring"}, nil},
		{"forecast", []string{"mixes", "sram", "nvm", "cv", "mean", "l2kb", "nvmlat", "scale", "sets", "coloring"},
			map[string]want{"policies": {`"standard"`, experiments.ForecastLabels()}}},
		{"cpthsweep", []string{"mixes", "scale", "sets"}, nil},
		{"energy", []string{"mixes", "scale"}, nil},
		{"thsweep", []string{"mixes", "scale", "tw"}, nil},
		{"appstudy", []string{"policy", "cpth"}, nil},
		{"wearmap", []string{"policy", "mix", "seed", "coloring"}, nil},
		{"faultstudy", []string{"policy", "mix", "seed", "coloring"}, nil},
		// tracegen's -mix is its own: 0 selects -app instead.
		{"tracegen", []string{"seed", "scale"}, map[string]want{"mix": {"", []string{mixRange}}}},
	}
	check := func(cmd, name string, w want) string {
		usage := flagUsage(help[cmd], name)
		if usage == "" {
			t.Errorf("%s: no -%s flag in help:\n%s", cmd, name, help[cmd])
			return ""
		}
		if shown := strings.Contains(usage, "(default "); w.def == "" && shown {
			t.Errorf("%s -%s help shows a default, want none:\n%s", cmd, name, usage)
		} else if w.def != "" && !strings.Contains(usage, "(default "+w.def+")") {
			t.Errorf("%s -%s help does not show default %s:\n%s", cmd, name, w.def, usage)
		}
		for _, word := range w.words {
			if !regexp.MustCompile(`(^|\W)` + regexp.QuoteMeta(word) + `($|\W)`).MatchString(usage) {
				t.Errorf("%s -%s help does not name %s:\n%s", cmd, name, word, usage)
			}
		}
		return usage
	}
	seen := map[string]string{} // flag -> the first command's help for it
	for _, c := range cmds {
		for _, name := range c.flags {
			usage := check(c.cmd, name, shared[name])
			if first, ok := seen[name]; ok && usage != first {
				t.Errorf("%s -%s help differs from another command's:\n%s\nvs\n%s", c.cmd, name, usage, first)
			}
			seen[name] = usage
		}
		for name, w := range c.local {
			check(c.cmd, name, w)
		}
	}
	for name := range shared {
		if _, ok := seen[name]; !ok {
			t.Errorf("no command checked for shared flag -%s", name)
		}
	}
}

// TestDocCmdFlags checks the commands the docs tell a reader to run:
// every cmd/<name> they name must exist, and every -flag written after it
// in the same code span must be one that <name> -h lists. ROADMAP.md and
// CHANGES.md are left out because they name deleted commands on purpose.
func TestDocCmdFlags(t *testing.T) {
	help := cmdHelp(t)
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile",
		filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	cmdRef := regexp.MustCompile(`\bcmd/(\w+)`)
	listed := regexp.MustCompile(`(?m)^  -([\w.-]+)`)
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(data), doc == "Makefile") {
			for _, m := range cmdRef.FindAllStringSubmatchIndex(span, -1) {
				name := span[m[2]:m[3]]
				if fi, err := os.Stat(filepath.Join("cmd", name)); err != nil || !fi.IsDir() {
					t.Errorf("%s: %q names cmd/%s, which does not exist", doc, span, name)
					continue
				}
				accepted := map[string]bool{"h": true, "help": true}
				for _, f := range listed.FindAllStringSubmatch(help[name], -1) {
					accepted[f[1]] = true
				}
				for _, f := range commandFlags(span[m[1]:]) {
					if !accepted[f] {
						t.Errorf("%s: %q passes -%s, which %s -h does not list", doc, span, f, name)
					}
				}
			}
		}
	}
}

// TestDocTestNames checks the tests the docs cite: every Test… or Fuzz…
// function a backticked span names must be defined in some _test.go of
// the repository, so a deleted or renamed test does not live on as
// evidence in the prose. A trailing * matches as a prefix (`TestStudy*`);
// a /subtest suffix is not checked.
func TestDocTestNames(t *testing.T) {
	defined := map[string]bool{}
	funcDef := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcDef.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hasPrefix := func(p string) bool {
		for name := range defined {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", filepath.Join("perfbench", "README.md"),
		filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	testRef := regexp.MustCompile(`\b((?:Test|Fuzz)[A-Z0-9_]\w*)(\*?)`)
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		_, inline := splitCode(string(data), false)
		for _, span := range inline {
			for _, ref := range testRef.FindAllStringSubmatch(span, -1) {
				if name, prefix := ref[1], ref[2] == "*"; !defined[name] && !(prefix && hasPrefix(name)) {
					t.Errorf("%s: `%s` names %s%s, which no _test.go defines", doc, span, name, ref[2])
				}
			}
		}
	}
}

// codeSpans returns the shell text of a document: each line of a
// Makefile or of a markdown fenced block, with backslash-continued lines
// joined, and each inline `code` span of the markdown prose.
func codeSpans(doc string, makefile bool) []string {
	shell, inline := splitCode(doc, makefile)
	return append(shell, inline...)
}

// splitCode returns codeSpans' fenced lines and inline spans apart.
func splitCode(doc string, makefile bool) (shell, inline []string) {
	var prose []string
	fenced := makefile
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case !makefile && strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			shell = append(shell, line)
		default:
			prose = append(prose, line)
		}
	}
	shell = strings.Split(strings.ReplaceAll(strings.Join(shell, "\n"), "\\\n", " "), "\n")
	for _, para := range strings.Split(strings.Join(prose, "\n"), "\n\n") {
		for _, m := range inlineCode.FindAllStringSubmatch(para, -1) {
			inline = append(inline, strings.ReplaceAll(m[1], "\n", " "))
		}
	}
	return shell, inline
}

var (
	inlineCode = regexp.MustCompile("`([^`]+)`")
	flagToken  = regexp.MustCompile(`^--?([A-Za-z][\w.-]*)`)
)

// commandFlags returns the flag names among the shell tokens that follow
// a command, up to the end of that command: a pipe, redirect, list
// operator, comment or closing subshell.
func commandFlags(rest string) []string {
	var flags []string
	for _, tok := range strings.Fields(rest) {
		if strings.ContainsAny(tok[:1], "|&;<>#") || strings.Contains(tok, ">") {
			break
		}
		if m := flagToken.FindStringSubmatch(tok); m != nil {
			flags = append(flags, m[1])
		}
		if strings.HasSuffix(tok, ";") || strings.HasSuffix(tok, ")") && !strings.HasPrefix(tok, "$(") {
			break
		}
	}
	return flags
}
