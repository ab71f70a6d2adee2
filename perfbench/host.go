package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// hostInfo is the host and build metadata recorded with every result.
type hostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func currentHost() hostInfo {
	return hostInfo{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     buildCommit(),
	}
}

// sameMachine reports whether two results come from comparable hosts; the
// commit may differ, since comparing commits is the point.
func (h hostInfo) sameMachine(o hostInfo) bool {
	h.Commit, o.Commit = "", ""
	return h == o
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// buildCommit is the VCS revision the binary was built from, when the build
// ran inside a git checkout.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// historyRecord is one line of the results history file.
type historyRecord struct {
	Time     time.Time `json:"time"`
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  int       `json:"seconds"`
	Trace    int       `json:"trace"`
	Host     hostInfo  `json:"host"`
	Result   result    `json:"result"`
}

// appendHistory adds rec to the history file and warns on w when the file
// already holds results from another host: those must not be compared with
// this one.
func appendHistory(path string, rec historyRecord, w io.Writer) error {
	if b, err := os.ReadFile(path); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			var old historyRecord
			if json.Unmarshal(sc.Bytes(), &old) == nil && !old.Host.sameMachine(rec.Host) {
				fmt.Fprintf(w, "warning: %s holds results from another host (%s, %d cpus, GOMAXPROCS %d, %s); do not compare them with this one\n",
					path, old.Host.CPU, old.Host.NProc, old.Host.GOMAXPROCS, old.Host.GoVersion)
				break
			}
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
