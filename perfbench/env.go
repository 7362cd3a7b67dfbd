package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// envHeader describes the machine and the code a result set was measured
// on. Commit and Dirty come from git when the checkout is a repository;
// otherwise SourceSHA256 identifies the tree by content.
type envHeader struct {
	GoVersion    string `json:"go_version"`
	GOARCH       string `json:"goarch"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NProc        int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	Kernel       string `json:"kernel"`
	Commit       string `json:"commit,omitempty"`
	Dirty        *bool  `json:"dirty,omitempty"`
	SourceSHA256 string `json:"source_sha256,omitempty"`
}

func readEnv(root string) envHeader {
	h := envHeader{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// Only the checkout's own repository counts: git would otherwise
	// report the commit of any repository the checkout happens to sit in.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := gitOut(root, "rev-parse", "HEAD"); err == nil {
			h.Commit = out
			if st, err := gitOut(root, "status", "--porcelain", "--untracked-files=no"); err == nil {
				dirty := st != ""
				h.Dirty = &dirty
			}
			return h
		}
	}
	h.SourceSHA256 = treeHash(root)
	return h
}

func gitOut(root string, args ...string) (string, error) {
	cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
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

// treeHash hashes every regular file of the checkout except build
// products, by path and content, in walk order.
func treeHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry leaves the hash weaker, not wrong
		}
		if d.IsDir() && (d.Name() == buildDir || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTicks reads the machine's cumulative stolen and total CPU ticks from
// the first line of /proc/stat; both are zero where it cannot be read.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stealClock measures the share of the machine's CPU time the hypervisor
// withheld (stole) from its start to a later reading.
type stealClock struct{ steal, total int64 }

func startSteal() stealClock {
	s, t := cpuTicks()
	return stealClock{s, t}
}

func (c stealClock) frac() float64 {
	s, t := cpuTicks()
	return float64(s-c.steal) / float64(max(t-c.total, 1))
}
