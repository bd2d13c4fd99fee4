package ecode

import (
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Compiled-filter cache. Control strings are redeployed verbatim — a
// restarted d-mon re-receives the same filter sources over the control
// channel, and a SmartPointer server re-installs the same adaptation policy
// — so compiling each (source, spec) pair once per process and sharing the
// resulting Filter skips the lexer, parser, checker and code generator on
// every redeployment. A Filter is immutable after compilation (Run mutates
// only the caller's VM and Env), so sharing one across goroutines is safe.

// maxCachedFilters bounds the cache; reaching the bound flushes it whole.
// Deployments cycle through a handful of filters, so an epoch flush is
// simpler than LRU bookkeeping and equally effective at that scale.
const maxCachedFilters = 256

var filterCache = struct {
	sync.Mutex
	m map[string]*Filter
	// hits and misses count the cache's traffic for its tests.
	hits   uint64
	misses uint64
}{m: map[string]*Filter{}}

// specFingerprint renders spec deterministically: consts sorted by name,
// globals in slot order (their positions are ABI). Symbol names are E-code
// identifiers, so the separators cannot collide with them.
func specFingerprint(sb *strings.Builder, spec *EnvSpec) {
	if spec == nil {
		return
	}
	names := make([]string, 0, len(spec.Consts))
	for name := range spec.Consts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sb.WriteByte('c')
		sb.WriteString(name)
		sb.WriteByte('=')
		sb.WriteString(strconv.FormatInt(spec.Consts[name], 10))
		sb.WriteByte(';')
	}
	for _, name := range spec.IntGlobals {
		sb.WriteByte('i')
		sb.WriteString(name)
		sb.WriteByte(';')
	}
	for _, name := range spec.FloatGlobals {
		sb.WriteByte('f')
		sb.WriteString(name)
		sb.WriteByte(';')
	}
}

func cacheKey(source string, spec *EnvSpec) string {
	var sb strings.Builder
	sb.Grow(len(source) + 64)
	specFingerprint(&sb, spec)
	sb.WriteByte('\x00')
	sb.WriteString(source)
	return sb.String()
}

// CompileCached is Compile backed by the process-wide cache: an unchanged
// (source, spec) pair returns the already-compiled Filter without touching
// the front-end. Failed compilations are not cached — every attempt with a
// bad source pays (and reports) the full pipeline.
func CompileCached(source string, spec *EnvSpec) (*Filter, error) {
	key := cacheKey(source, spec)
	filterCache.Lock()
	if f, ok := filterCache.m[key]; ok {
		filterCache.hits++
		filterCache.Unlock()
		return f, nil
	}
	filterCache.misses++
	filterCache.Unlock()
	f, err := Compile(source, spec)
	if err != nil {
		return nil, err
	}
	filterCache.Lock()
	if len(filterCache.m) >= maxCachedFilters {
		filterCache.m = map[string]*Filter{}
	}
	filterCache.m[key] = f
	filterCache.Unlock()
	return f, nil
}
