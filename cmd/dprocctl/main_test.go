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
