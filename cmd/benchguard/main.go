// Command benchguard compares two `go test -json -bench` output files and
// fails when a benchmark got slower than an allowed factor. CI runs it
// after the bench job so a PR that regresses a gated path (the serving
// hot path BenchmarkSparsifierSolve, the sharded construction race
// BenchmarkShardedSparsify) fails visibly instead of silently shipping
// the slowdown.
//
// Usage:
//
//	benchguard -old BENCH_pr3.json -new BENCH_pr4.json \
//	    -gate 'BenchmarkSparsifierSolve=1.25' \
//	    -gate 'BenchmarkShardedSparsify=1.40'
//
// Each -gate is a regexp=max-slowdown pair and may repeat; a benchmark
// matching several gates is held to the strictest. A gate holds the
// whole benchmark name it matches and that benchmark's sub-benchmarks:
// 'BenchmarkStreamUpdate/patched' holds .../patched and .../patched/x but
// not .../patched-x. The legacy -bench/-max-slowdown pair remains as
// a single default gate, matched unanchored like go test's -bench.
// Benchmarks present in only one file are reported but do not fail the
// run (the set is expected to grow PR over PR); a matched benchmark
// whose new ns/op exceeds old·max-slowdown fails it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// gate is one regexp → allowed-slowdown rule.
type gate struct {
	re  *regexp.Regexp
	max float64
}

// gateFlags accumulates repeated -gate 'regexp=factor' flags.
type gateFlags []gate

func (g *gateFlags) String() string {
	var parts []string
	for _, x := range *g {
		parts = append(parts, fmt.Sprintf("%s=%g", x.re, x.max))
	}
	return strings.Join(parts, ",")
}

// compileGate compiles a gate pattern anchored to a whole name or a
// '/'-separated prefix of it.
func compileGate(pat string) (*regexp.Regexp, error) {
	return regexp.Compile("^(?:" + pat + ")(?:/|$)")
}

func (g *gateFlags) Set(s string) error {
	eq := strings.LastIndex(s, "=")
	if eq < 0 {
		return fmt.Errorf("gate %q: want regexp=max-slowdown", s)
	}
	re, err := compileGate(s[:eq])
	if err != nil {
		return fmt.Errorf("gate %q: %w", s, err)
	}
	max, err := strconv.ParseFloat(s[eq+1:], 64)
	if err != nil || max <= 0 {
		return fmt.Errorf("gate %q: bad max-slowdown %q", s, s[eq+1:])
	}
	*g = append(*g, gate{re: re, max: max})
	return nil
}

// limitFor returns the strictest max-slowdown any gate imposes on name,
// or +Inf when no gate matches.
func (g gateFlags) limitFor(name string) float64 {
	limit := math.Inf(1)
	for _, x := range g {
		if x.re.MatchString(name) && x.max < limit {
			limit = x.max
		}
	}
	return limit
}

// event is the subset of the test2json stream benchguard reads.
type event struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// benchLine matches "BenchmarkName-8   	      12	  98765 ns/op ..."
// (the CPU-count suffix is stripped so runs from different machines
// compare).
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parse extracts benchmark name → ns/op from a test2json stream (or raw
// `go test -bench` text). test2json splits one terminal line across
// output events — the benchmark name arrives in its own fragment ending
// in a tab, the timings in the next — so fragments are reassembled until
// a newline before matching.
func parse(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]float64)
	take := func(line string) {
		if m := benchLine.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
			if ns, err := strconv.ParseFloat(m[2], 64); err == nil {
				out[m[1]] = ns
			}
		}
	}
	var frag strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err == nil {
			if ev.Action != "output" {
				continue
			}
			frag.WriteString(ev.Output)
			if strings.HasSuffix(ev.Output, "\n") {
				take(frag.String())
				frag.Reset()
			}
			continue
		}
		take(line) // raw `go test -bench` text
	}
	take(frag.String()) // unterminated trailing fragment
	return out, sc.Err()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchguard: ")
	oldPath := flag.String("old", "", "baseline bench JSON (test2json stream)")
	newPath := flag.String("new", "", "candidate bench JSON (test2json stream)")
	benchRE := flag.String("bench", "", "regexp for the default gate (legacy single-gate mode)")
	maxSlowdown := flag.Float64("max-slowdown", 1.25, "max-slowdown of the legacy -bench gate")
	var gates gateFlags
	flag.Var(&gates, "gate", "regexp=max-slowdown pair; repeatable, strictest match wins")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		log.Fatal("need -old and -new")
	}
	if *benchRE != "" {
		re, err := regexp.Compile(*benchRE)
		if err != nil {
			log.Fatalf("bad -bench regexp: %v", err)
		}
		gates = append(gates, gate{re: re, max: *maxSlowdown})
	}
	if len(gates) == 0 {
		// No explicit gate: everything is held to -max-slowdown, matching
		// the historical default of -bench '.'.
		gates = append(gates, gate{re: regexp.MustCompile("."), max: *maxSlowdown})
	}

	oldNS, err := parse(*oldPath)
	if err != nil {
		log.Fatalf("parsing %s: %v", *oldPath, err)
	}
	newNS, err := parse(*newPath)
	if err != nil {
		log.Fatalf("parsing %s: %v", *newPath, err)
	}
	if len(oldNS) == 0 {
		log.Fatalf("no benchmark results in %s", *oldPath)
	}
	if len(newNS) == 0 {
		log.Fatalf("no benchmark results in %s", *newPath)
	}

	names := make([]string, 0, len(newNS))
	for name := range newNS {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		nv := newNS[name]
		ov, ok := oldNS[name]
		if !ok {
			fmt.Printf("NEW   %-60s %14.0f ns/op (no baseline)\n", name, nv)
			continue
		}
		ratio := nv / ov
		limit := gates.limitFor(name)
		status := "ok  "
		if ratio > limit {
			status = "FAIL"
			failed = true
		}
		lim := "ungated"
		if !math.IsInf(limit, 1) {
			lim = fmt.Sprintf("limit %.2fx", limit)
		}
		fmt.Printf("%s  %-60s %14.0f -> %14.0f ns/op  (%.2fx, %s)\n",
			status, name, ov, nv, ratio, lim)
	}
	for name := range oldNS {
		if _, ok := newNS[name]; !ok {
			fmt.Printf("GONE  %-60s (present in baseline only)\n", name)
		}
	}
	if failed {
		log.Fatal("benchmark regression above a gate limit")
	}
}
