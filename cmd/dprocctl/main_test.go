package main

import (
	"sort"
	"strings"
	"testing"

	"dproc/internal/adminproto"
)

// TestUsageListsExactlyTheRunnableVerbs holds the usage text to the dispatch
// table: every verb it names has a run entry, every run entry is named, and
// every run entry is a verb of the adminproto table.
func TestUsageListsExactlyTheRunnableVerbs(t *testing.T) {
	var listed []string
	for _, line := range strings.Split(usageText(), "\n") {
		rest, ok := strings.CutPrefix(line, usagePrefix)
		if !ok {
			continue
		}
		listed = append(listed, strings.Fields(rest)[0])
	}
	var runnable []string
	for name := range run {
		runnable = append(runnable, name)
		if _, ok := adminproto.LookupVerb(name); !ok {
			t.Errorf("run has %q, which adminproto does not define", name)
		}
	}
	sort.Strings(listed)
	sort.Strings(runnable)
	if strings.Join(listed, " ") != strings.Join(runnable, " ") {
		t.Fatalf("usage lists %v, run dispatches %v", listed, runnable)
	}
}

// A verb's arguments are counted in words, not shell arguments: a query
// quoted as one argument runs like the same query unquoted, for queryall
// and for query <node>, and a query too short in words still gets the
// usage.
func TestRunnableCountsWords(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"queryall", "p99", "loadavg", "last", "30s"}, true},
		{[]string{"queryall", "p99 loadavg last 30s"}, true},
		{[]string{"query", "alan", "p99", "loadavg", "last", "30s"}, true},
		{[]string{"query", "alan", "p99 loadavg last 30s"}, true},
		{[]string{"queryall", "p99"}, false},
		{[]string{"queryall", " p99 "}, false},
		{[]string{"queryall"}, false},
		{[]string{"query", "alan"}, false},
		{[]string{"cat"}, false},
		{[]string{"querypart", "12"}, false}, // the coordinator's verb, not dprocctl's
		{nil, false},
	} {
		if _, ok := runnable(tc.args); ok != tc.ok {
			t.Errorf("runnable(%q) = %v, want %v", tc.args, ok, tc.ok)
		}
	}
}
