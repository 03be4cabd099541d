package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord is written into every result so that numbers from unlike
// machines or sizes are never compared.
type hostRecord struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	W          int     `json:"w"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Link       string  `json:"link"`
}

const loopbackNote = "one process: generator, origin and servers share it over loopback TCP (no real link)"

// poolSize is W: the client count and every pool size.
func poolSize() int { return min(runtime.NumCPU(), 4) }

func newHostRecord(root string, seed uint64, seconds float64) hostRecord {
	return hostRecord{
		Commit:     gitCommit(root),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		W:          poolSize(),
		Seed:       seed,
		Seconds:    seconds,
		Link:       loopbackNote,
	}
}

// comparable reports whether two runs measured the same thing on the
// same kind of machine; the commit is what a comparison varies.
func (h hostRecord) comparable(o hostRecord) bool {
	return h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS && h.W == o.W &&
		h.Seed == o.Seed && h.Seconds == o.Seconds
}

// gitCommit is "unknown" in a checkout that is not a git repository;
// git is kept from looking for one above the checkout.
func gitCommit(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	if v := procField("/proc/cpuinfo", "model name"); v != "" {
		return v
	}
	return runtime.GOARCH
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	fields := strings.Fields(procField("/proc/self/status", "VmHWM"))
	if len(fields) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// procField returns the value of the first "key : value" line of a
// /proc file, "" when the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// cpuTime is the user and system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
