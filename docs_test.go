package ucmp_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The docs point into each other and into the tree: a Go comment or a
// Makefile recipe names a DESIGN.md section, and DESIGN.md, README.md and
// the verify skill name files. These tests fail when a section is
// renumbered or a file moves without the pointers following.

const verifySkill = ".claude/skills/verify/SKILL.md"

var (
	designHeading = regexp.MustCompile(`(?m)^## (\d+)\. `)
	designPointer = regexp.MustCompile(`DESIGN(?:\.md)?,? §\d+(?:,\s*§\d+)*`)
	sectionNumber = regexp.MustCompile(`§(\d+)`)
	repoPath      = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])(?:\./)?((?:internal|cmd|examples)/[A-Za-z0-9_./-]*)`)
)

// pointerFiles lists every file whose DESIGN pointers must resolve: all Go
// files outside benchmark/ (which documents itself), plus the Makefile, CI
// and the user-facing docs. CHANGES.md and ROADMAP.md are history and plans
// and keep the numbering of their day.
func pointerFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"Makefile", ".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md", verifySkill}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "benchmark" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Every "DESIGN.md §N" (or "DESIGN §N", or a list "DESIGN.md §N, §M") names
// an existing "## N." heading of DESIGN.md.
func TestDesignPointersResolve(t *testing.T) {
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(readDoc(t, "DESIGN.md"), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}
	for _, path := range pointerFiles(t) {
		for i, line := range strings.Split(readDoc(t, path), "\n") {
			for _, ptr := range designPointer.FindAllString(line, -1) {
				for _, n := range sectionNumber.FindAllStringSubmatch(ptr, -1) {
					if !sections[n[1]] {
						t.Errorf("%s:%d: %q names no DESIGN.md section", path, i+1, ptr)
					}
				}
			}
		}
	}
}

// Every internal/…, cmd/… and examples/… path named in DESIGN.md,
// README.md and the verify skill exists.
func TestDocPathsExist(t *testing.T) {
	for _, doc := range []string{"DESIGN.md", "README.md", verifySkill} {
		for i, line := range strings.Split(readDoc(t, doc), "\n") {
			for _, m := range repoPath.FindAllStringSubmatch(line, -1) {
				path := strings.TrimRight(m[1], "./")
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s:%d: names %s, which does not exist", doc, i+1, m[1])
				}
			}
		}
	}
}
