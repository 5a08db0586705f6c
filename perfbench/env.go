package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostTicks returns the host's steal ticks and all ticks from the
// aggregate cpu line of /proc/stat.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		n, _ := strconv.ParseUint(s, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSamples reads the runtime's counters without stopping the
// world; tiny allocations are counted apart from the rest.
var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// runtimeCounts returns the heap allocations so far, as
// runtime.MemStats.Mallocs counts them, and the completed GC cycles.
func runtimeCounts() (allocs, gcs uint64) {
	metrics.Read(runtimeSamples)
	return runtimeSamples[0].Value.Uint64() + runtimeSamples[1].Value.Uint64(), runtimeSamples[2].Value.Uint64()
}

// residentBytes is the process's resident set size from
// /proc/self/statm, 0 where unavailable.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceID identifies the code under test: the git commit when the
// checkout is a repository, and always a hash of the Go sources and
// module files, which also identifies a checkout without git metadata.
func sourceID(root string) (commit, tree string) {
	commit = "unknown"
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				ref = strings.TrimSpace(string(b))
			}
		}
		commit = ref
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the hash
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir // .git, .bench_build
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	return commit, hex.EncodeToString(h.Sum(nil))[:16]
}

// freeMemory returns a discarded set-up's memory to the OS so the next
// set-up starts from the same footing.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// bounded runs fn and waits at most limit for it. On timeout it dumps
// every goroutine to stderr and returns an error; fn's goroutine is left
// behind, and the process exits soon after with the run failed.
func bounded(what string, limit time.Duration, fn func()) error {
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(limit):
		fmt.Fprintf(os.Stderr, "perfbench: %s did not return within %v; goroutines:\n", what, limit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		return fmt.Errorf("%s did not return within %v", what, limit)
	}
}
