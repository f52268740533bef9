package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// host is the machine and build a result was measured on. Numbers move
// between machines, so every result carries it and validate rejects a
// result without it.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// Commit is the git revision the benchmark was built from. A tree with
	// local changes appends "+dirty-src-sha256:" and a digest of the
	// module's Go sources and go.mod files, so two different dirty trees
	// on one base read differently; a checkout without git metadata
	// records "src-sha256:" and the digest alone.
	Commit string `json:"commit"`
}

// collectHost reads the host description; root is the checkout root. A
// field that cannot be read is left empty, for validateHost to reject.
func collectHost(root string) host {
	h := host{
		CPUModel:   cpuModel("/proc/cpuinfo"),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease("/proc/sys/kernel/osrelease"),
	}
	rev, dirty := buildRevision()
	if rev != "" && !dirty {
		h.Commit = "git:" + rev
		return h
	}
	d, err := sourceDigest(root)
	switch {
	case err != nil:
		// Without the digest a dirty or unversioned tree cannot be named.
	case rev != "":
		h.Commit = "git:" + rev + "+dirty-src-sha256:" + d
	default:
		h.Commit = "src-sha256:" + d
	}
	return h
}

// cpuModel is the first "model name" in a cpuinfo file; "" when the file
// cannot be read or names no model.
func cpuModel(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// kernelRelease is the OS name and the release read from an osrelease
// file; "" when the file cannot be read or is empty.
func kernelRelease(path string) string {
	b, err := os.ReadFile(path)
	if err != nil || strings.TrimSpace(string(b)) == "" {
		return ""
	}
	return runtime.GOOS + " " + strings.TrimSpace(string(b))
}

// buildRevision is the VCS revision stamped into the binary and whether
// the tree had local changes; "" when it was built outside a repository.
func buildRevision() (rev string, dirty bool) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", false
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	return rev, dirty
}

// sourceDigest hashes every .go and go.mod file under root, by path and
// content in path order, skipping build output and VCS directories.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			f.Close()
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// validateHost rejects a host description with any field missing.
func validateHost(h host) error {
	var missing []string
	if h.CPUModel == "" {
		missing = append(missing, "cpu_model")
	}
	if h.NProc <= 0 {
		missing = append(missing, "nproc")
	}
	if h.GOMAXPROCS <= 0 {
		missing = append(missing, "gomaxprocs")
	}
	if h.GoVersion == "" {
		missing = append(missing, "go_version")
	}
	if h.Kernel == "" {
		missing = append(missing, "kernel")
	}
	if h.Commit == "" {
		missing = append(missing, "commit")
	}
	if len(missing) > 0 {
		return errors.New("host metadata missing: " + strings.Join(missing, ", "))
	}
	return nil
}

// maxRSSMB is the process's peak resident set size in MiB (VmHWM), or
// the Go runtime's total obtained memory where /proc is unavailable.
func maxRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
