package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// streamArrayLen is the element count of each STREAM array of the membench
// probe (float64, so 128 MiB per array).
const streamArrayLen = 1 << 24

// fingerprint identifies the host and code a result was measured on. Two
// results are comparable only when their fingerprints agree.
type fingerprint struct {
	NProc            int    `json:"nproc"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	GoVersion        string `json:"go_version"`
	CPUModel         string `json:"cpu_model"`
	LLCBytes         int64  `json:"llc_bytes"`
	StreamArrayBytes int64  `json:"stream_array_bytes"`
	Commit           string `json:"commit"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		NProc:            runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		GoVersion:        runtime.Version(),
		CPUModel:         cpuModel(),
		LLCBytes:         llcBytes(),
		StreamArrayBytes: streamArrayLen * 8,
		Commit:           headCommit(".."),
	}
}

// diff lists the fields in which two fingerprints differ.
func (f fingerprint) diff(o fingerprint) []string {
	var out []string
	add := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s: %v vs %v", name, a, b))
		}
	}
	add("nproc", f.NProc, o.NProc)
	add("gomaxprocs", f.GOMAXPROCS, o.GOMAXPROCS)
	add("go_version", f.GoVersion, o.GoVersion)
	add("cpu_model", f.CPUModel, o.CPUModel)
	add("llc_bytes", f.LLCBytes, o.LLCBytes)
	add("stream_array_bytes", f.StreamArrayBytes, o.StreamArrayBytes)
	add("commit", f.Commit, o.Commit)
	return out
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

// llcBytes reads the size of cpu0's highest-level cache from sysfs; 0 when
// the host does not expose it.
func llcBytes() int64 {
	var size int64
	level := 0
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		if err != nil || lv <= level {
			continue
		}
		s := readTrim(filepath.Join(d, "size"))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			level, size = lv, n*mult
		}
	}
	return size
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// headCommit resolves HEAD of the repository at root by reading .git
// directly (no git process); "unknown" outside a git checkout, which is how
// the benchmark driver runs it.
func headCommit(root string) string {
	git := filepath.Join(root, ".git")
	head := readTrim(filepath.Join(git, "HEAD"))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		if head == "" {
			return "unknown"
		}
		return head
	}
	if h := readTrim(filepath.Join(git, ref)); h != "" {
		return h
	}
	for _, line := range strings.Split(readTrim(filepath.Join(git, "packed-refs")), "\n") {
		if h, name, ok := strings.Cut(line, " "); ok && name == ref {
			return h
		}
	}
	return "unknown"
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
