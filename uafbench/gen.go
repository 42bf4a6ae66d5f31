package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"uafcheck/internal/corpus"
	"uafcheck/internal/progen"
)

// input is one analyzed file with its reference verdict: the set of
// dangerous access sites ("var:line") the analysis must report.
type input struct {
	Name string
	Src  string
	Ref  map[string]bool
}

// corpusInputs is the Table I population for seed, with references
// taken from the generator's ground-truth labels: the labelled true
// sites for dangerous tests, every outer access inside a task for the
// atomics-synchronized tests (the paper's analysis does not model
// atomics, so it flags each one), and nothing for the rest.
func corpusInputs(seed int64) ([]input, error) {
	cases := corpus.Generate(corpus.DefaultParams(seed))
	out := make([]input, len(cases))
	for i, c := range cases {
		ref := make(map[string]bool)
		switch {
		case strings.HasPrefix(c.Pattern, "atomic-"):
			for _, s := range taskAccessSites(c.Source) {
				ref[s] = true
			}
		case c.WantWarn:
			for _, s := range c.TrueSites {
				ref[s] = true
			}
		}
		out[i] = input{Name: c.Name + ".chpl", Src: c.Source, Ref: ref}
	}
	return out, nil
}

// taskAccessSites scans a source for accesses to a begin's ref-captured
// variable inside the begin body, skipping atomic operations. It reads
// the program text only, never the analyzer.
func taskAccessSites(src string) []string {
	var sites []string
	var stack []string // captured var per open begin, "" for other blocks
	for i, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, "}") && len(stack) > 0 {
			stack = stack[:len(stack)-1]
		}
		if v := innermostCapture(stack); v != "" && !strings.Contains(t, ".") && mentions(t, v) {
			sites = append(sites, fmt.Sprintf("%s:%d", v, i+1))
		}
		if strings.HasSuffix(t, "{") {
			v := ""
			if strings.HasPrefix(t, "begin with (ref ") {
				v = strings.TrimSuffix(strings.TrimPrefix(t, "begin with (ref "), ") {")
			}
			stack = append(stack, v)
		}
	}
	return sites
}

func innermostCapture(stack []string) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] != "" {
			return stack[i]
		}
	}
	return ""
}

// mentions reports whether the statement uses identifier v.
func mentions(stmt, v string) bool {
	for _, f := range strings.FieldsFunc(stmt, func(r rune) bool {
		return !(r == '_' || r == '$' || r >= '0' && r <= '9' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z')
	}) {
		if f == v {
			return true
		}
	}
	return false
}

// denseFiles is the size of the generated pps-dense family.
const denseFiles = 90

// shape is the seed-independent structure of one pps-dense program.
type shape struct {
	tasks    int  // signalling fire-and-forget tasks
	ladder   int  // branch rungs inside every signalling task
	omit     bool // the parent never waits for one task (a true UAF)
	trailing bool // one task accesses its variable after signalling
	copyIn   bool // one extra copy-in task without a signal (prunable)
}

// denseShape is the shape of family member j. Every seed builds the
// same multiset of shapes, so run-to-run differences are the
// analyzer's, not the draw's: sizes 5..11 each make up 2/15 of the
// family and size 12 the remaining 1/15, an eighth of the members
// carry a 1- or 2-rung ladder, and omitted waits, trailing accesses
// and copy-in tasks each appear in a fixed share.
func denseShape(j int) shape {
	sh := shape{
		tasks:    5 + j%15/2,
		omit:     j/5%3 == 0,
		trailing: j/7%3 == 0,
		copyIn:   j/3%4 == 0,
	}
	if j%8 == 7 {
		sh.ladder = 1 + j/8%2
	}
	return sh
}

// ppsDenseInputs is the task-dense family: denseFiles generated fanouts
// plus the paper's figures read from the checkout's testdata. Each
// generated program's reference is known by construction. The seed
// decides the file order and each program's details: variables,
// constants, which task's wait is omitted, which task trails, where the
// copy-in task sits, and the wait order.
func ppsDenseInputs(seed int64, root string) ([]input, error) {
	r := rand.New(rand.NewSource(seed))
	out := make([]input, 0, denseFiles+3)
	for i, j := range r.Perm(denseFiles) {
		out = append(out, genFanout(r, fmt.Sprintf("dense%03d.chpl", i), denseShape(j)))
	}
	figs, err := figureInputs(root)
	if err != nil {
		return nil, err
	}
	return append(out, figs...), nil
}

// figureRefs are the paper's verdicts on its own figures: Figure 1's
// TASK B read of x (line 14) and Figure 6's TASK B read (line 13).
var figureRefs = map[string][]string{
	"figure1.chpl":      {"x:14"},
	"figure1_safe.chpl": nil,
	"figure6.chpl":      {"x:13"},
}

func figureInputs(root string) ([]input, error) {
	names := make([]string, 0, len(figureRefs))
	for n := range figureRefs {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []input
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(root, "testdata", n))
		if err != nil {
			return nil, fmt.Errorf("read figure: %w", err)
		}
		ref := make(map[string]bool)
		for _, s := range figureRefs[n] {
			ref[s] = true
		}
		out = append(out, input{Name: n, Src: string(b), Ref: ref})
	}
	return out, nil
}

// src is a line-numbering source builder.
type src struct {
	b      strings.Builder
	line   int
	indent int
}

func (s *src) ln(format string, args ...any) int {
	s.line++
	s.b.WriteString(strings.Repeat("  ", s.indent))
	fmt.Fprintf(&s.b, format, args...)
	s.b.WriteByte('\n')
	return s.line
}

// genFanout emits one task-dense program of the given shape: a fanout
// of fire-and-forget tasks, each signalling its own sync variable, with
// parent branches interleaved among the waits in a random order.
//
// The reference follows from the construction: an access before a
// task's signal is dangerous exactly when the parent never waits for
// that signal, an access after the signal is always dangerous, and a
// copy-in task's accesses never are.
func genFanout(r *rand.Rand, name string, sh shape) input {
	k := sh.tasks
	vars := []string{"x", "y"}
	s := &src{}
	ref := make(map[string]bool)
	s.ln("config const flag = true;")
	s.ln("proc fan() {")
	s.indent++
	for _, v := range vars {
		s.ln("var %s: int = %d;", v, r.Intn(100))
	}
	for i := 0; i < k; i++ {
		s.ln("var d%d$: sync bool;", i)
	}
	omitted, trailer, copyAt := -1, -1, -1
	if sh.omit {
		omitted = r.Intn(k)
	}
	if sh.trailing {
		trailer = r.Intn(k)
	}
	if sh.copyIn {
		copyAt = r.Intn(k + 1)
	}
	for i := 0; i <= k; i++ {
		v := vars[r.Intn(len(vars))]
		if i == copyAt {
			s.ln("begin with (in %s) {", v)
			s.indent++
			s.ln("writeln(%s);", v)
			s.indent--
			s.ln("}")
		}
		if i == k {
			break
		}
		var sites []int
		s.ln("begin with (ref %s) {", v)
		s.indent++
		if r.Intn(2) == 0 {
			sites = append(sites, s.ln("%s += %d;", v, i+1))
		} else {
			sites = append(sites, s.ln("writeln(%s);", v))
		}
		for j := 0; j < sh.ladder; j++ {
			s.ln("if (flag) {")
			s.indent++
			sites = append(sites, s.ln("%s = %s + %d;", v, v, j+1))
			s.indent--
			s.ln("} else {")
			s.indent++
			s.ln("writeln(%d);", j)
			s.indent--
			s.ln("}")
		}
		s.ln("d%d$ = true;", i)
		if i == trailer {
			ref[fmt.Sprintf("%s:%d", v, s.ln("writeln(%s);", v))] = true
		}
		s.indent--
		s.ln("}")
		if i == omitted {
			for _, l := range sites {
				ref[fmt.Sprintf("%s:%d", v, l)] = true
			}
		}
	}
	for n, i := range r.Perm(k) {
		if n%3 == 1 {
			s.ln("if (flag) { writeln(%d); } else { writeln(0); }", n)
		}
		if i != omitted {
			s.ln("d%d$;", i)
		}
	}
	s.indent--
	s.ln("}")
	return input{Name: name, Src: s.b.String(), Ref: ref}
}

// module is one multi-file program of the module-edit workload and the
// seeded sequence of callee edits replayed over it. Snapshots[0] is the
// generated module; each later snapshot applies one edit to the
// previous one.
type module struct {
	Name      string
	Snapshots [][]progen.File
	// Effect marks snapshots whose edit toggled an escaping task in a
	// callee: its summary changes (and its callers re-key) unless another
	// escape already covers the formal.
	Effect []bool
}

const (
	modules      = 192
	moduleFiles  = 4
	moduleProcs  = 4
	moduleEdits  = 10
	escapeMarker = "// escape"
)

// moduleInputs generates the module-edit family: modules of
// moduleFiles files × moduleProcs procedures, each with a sequence of
// moduleEdits edits to non-entry procedures. Effect-preserving edits
// add a print, which only shifts lines; effect-changing edits add or
// remove an escaping task over the procedure's by-ref formal.
func moduleInputs(seed int64) []module {
	r := rand.New(rand.NewSource(seed))
	out := make([]module, modules)
	for m := range out {
		files := progen.GenerateModule(r.Int63(), progen.ModuleOptions{Files: moduleFiles, Procs: moduleProcs})
		mod := module{Name: fmt.Sprintf("mod%02d", m), Snapshots: [][]progen.File{files}, Effect: []bool{false}}
		for e := 0; e < moduleEdits; e++ {
			next, effect := editModule(r, mod.Snapshots[len(mod.Snapshots)-1], e)
			mod.Snapshots = append(mod.Snapshots, next)
			mod.Effect = append(mod.Effect, effect)
		}
		out[m] = mod
	}
	return out
}

// editModule applies one edit to a copy of files: it picks a non-entry
// procedure and either appends a print (effect-preserving) or toggles
// an escaping task on its by-ref formal (effect-changing).
func editModule(r *rand.Rand, files []progen.File, n int) ([]progen.File, bool) {
	next := append([]progen.File(nil), files...)
	type loc struct{ file, line int }
	var procs []loc
	for fi, f := range next {
		for li, l := range strings.Split(f.Src, "\n") {
			if strings.HasPrefix(l, "proc ") && strings.Contains(l, "(ref v: int)") {
				procs = append(procs, loc{fi, li})
			}
		}
	}
	p := procs[r.Intn(len(procs))]
	lines := strings.Split(next[p.file].Src, "\n")
	effect := r.Intn(2) == 0
	var ins []string
	if effect {
		// Toggle: remove this procedure's escape if it has one, else add.
		if p.line+1 < len(lines) && strings.Contains(lines[p.line+1], escapeMarker) {
			lines = append(lines[:p.line+1], lines[p.line+4:]...)
			next[p.file].Src = strings.Join(lines, "\n")
			return next, true
		}
		ins = []string{
			"  begin with (ref v) { " + escapeMarker,
			fmt.Sprintf("    v = v + %d;", 1+n),
			"  }",
		}
	} else {
		ins = []string{fmt.Sprintf("  writeln(%d);", 100+n)}
		if p.line+1 < len(lines) && strings.Contains(lines[p.line+1], escapeMarker) {
			// Keep an existing escape block contiguous after the header.
			p.line += 3
		}
	}
	out := append([]string(nil), lines[:p.line+1]...)
	out = append(out, ins...)
	out = append(out, lines[p.line+1:]...)
	next[p.file].Src = strings.Join(out, "\n")
	return next, effect
}
