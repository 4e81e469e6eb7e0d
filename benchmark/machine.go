package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// machineInfo is the machine block printed with every run, so a number is
// never read without the box it came from.
type machineInfo struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	CgroupCPUs float64 `json:"cgroup_cpus"` // 0 = no quota
	GOMAXPROCS int     `json:"gomaxprocs"`
	L1dKiB     int64   `json:"l1d_kib"`
	L2KiB      int64   `json:"l2_kib"`
	LLCKiB     int64   `json:"llc_kib"`
	RAMMiB     int64   `json:"ram_mib"`
	Go         string  `json:"go"`
	// STREAM-style bandwidth, measured in the traced run only (the arrays
	// would otherwise dominate the untraced run's peak RSS and set-up).
	StreamArrayMiB int64   `json:"stream_array_mib,omitempty"`
	StreamNote     string  `json:"stream_note,omitempty"`
	CopyGBps       float64 `json:"copy_gbps,omitempty"`
	TriadGBps      float64 `json:"triad_gbps,omitempty"`
}

// pinProcs sets GOMAXPROCS to min(nproc, cgroup CPU quota). Go 1.24 does
// not read the quota itself, and a benchmark that schedules more threads
// than it may run measures the throttler.
func pinProcs() machineInfo {
	m := machineInfo{NProc: runtime.NumCPU(), Go: runtime.Version()}
	m.CgroupCPUs = cgroupCPUs()
	procs := m.NProc
	if q := int(m.CgroupCPUs); m.CgroupCPUs > 0 && q < procs {
		procs = max(q, 1)
	}
	runtime.GOMAXPROCS(procs)
	m.GOMAXPROCS = procs
	m.CPU = cpuModel()
	m.L1dKiB = cacheKiB(1, "Data")
	m.L2KiB = cacheKiB(2, "Unified")
	m.LLCKiB = lastLevelCacheKiB()
	m.RAMMiB = procKiB("/proc/meminfo", "MemTotal:") / 1024
	return m
}

// cgroupCPUs reads the CPU quota from cgroup v2 (cpu.max) or v1
// (cpu.cfs_quota_us / cpu.cfs_period_us); 0 means unlimited or unreadable.
func cgroupCPUs() float64 {
	if raw, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		f := strings.Fields(string(raw))
		if len(f) == 2 && f[0] != "max" {
			q, _ := strconv.ParseFloat(f[0], 64)
			p, _ := strconv.ParseFloat(f[1], 64)
			if q > 0 && p > 0 {
				return q / p
			}
		}
		return 0
	}
	q := readInt("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
	p := readInt("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
	if q > 0 && p > 0 {
		return float64(q) / float64(p)
	}
	return 0
}

func readInt(path string) int64 {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
	return v
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

// procKiB returns the kB value of a "Key:   123 kB" line (0 if absent).
func procKiB(path, key string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// peakRSSMiB is the process's resident high-water mark (VmHWM).
func peakRSSMiB() float64 {
	return float64(procKiB("/proc/self/status", "VmHWM:")) / 1024
}

const cpu0Cache = "/sys/devices/system/cpu/cpu0/cache/"

func cacheIndexKiB(idx int) (level int64, typ string, kib int64) {
	dir := fmt.Sprintf("%sindex%d/", cpu0Cache, idx)
	level = readInt(dir + "level")
	raw, _ := os.ReadFile(dir + "type")
	typ = strings.TrimSpace(string(raw))
	raw, _ = os.ReadFile(dir + "size")
	s := strings.TrimSpace(string(raw))
	mult := int64(1)
	if t, ok := strings.CutSuffix(s, "K"); ok {
		s = t
	} else if t, ok := strings.CutSuffix(s, "M"); ok {
		s, mult = t, 1024
	}
	v, _ := strconv.ParseInt(s, 10, 64)
	return level, typ, v * mult
}

func cacheKiB(level int64, typ string) int64 {
	for i := 0; i < 8; i++ {
		if l, t, k := cacheIndexKiB(i); l == level && t == typ {
			return k
		}
	}
	return 0
}

func lastLevelCacheKiB() int64 {
	var best, bestLevel int64
	for i := 0; i < 8; i++ {
		if l, _, k := cacheIndexKiB(i); l > bestLevel {
			best, bestLevel = k, l
		}
	}
	return best
}

// streamCapMiB caps one STREAM array. Four times this VM's reported 260 MiB
// last-level cache is 1040 MiB per array; first-touching three of those
// cost 20 s of page faults here, more than the rest of a traced run.
const streamCapMiB = 128

// measureStream fills in the STREAM-style copy and triad bandwidth: arrays
// of four times the OS-reported last-level cache, capped at capMiB
// (streamCapMiB outside tests) and, for the three together, at a quarter
// of RAM. When a cap binds the
// figure is cache-assisted and labelled so. Every kernel rate in the traced
// run is read against triad, measured here in the same process.
func (m *machineInfo) measureStream(capMiB int64) {
	want := 4 * m.LLCKiB * 1024 / 8
	if want == 0 {
		want = capMiB << 20 / 8 // cache size unreadable
	}
	elems := min(want, capMiB<<20/8)
	if limit := m.RAMMiB << 20 / 4 / 3 / 8; m.RAMMiB > 0 {
		elems = min(elems, limit)
	}
	if elems < want {
		m.StreamNote = fmt.Sprintf("cache-assisted: arrays capped below 4x LLC (%d MiB)", want*8>>20)
	}
	m.StreamArrayMiB = elems * 8 / (1 << 20)
	a := make([]float64, elems)
	b := make([]float64, elems)
	c := make([]float64, elems)
	procs := runtime.GOMAXPROCS(0)
	split := func(fn func(lo, hi int64)) time.Duration {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < procs; w++ {
			lo, hi := elems*int64(w)/int64(procs), elems*int64(w+1)/int64(procs)
			wg.Add(1)
			go func() { defer wg.Done(); fn(lo, hi) }()
		}
		wg.Wait()
		return time.Since(t0)
	}
	split(func(lo, hi int64) { // first touch
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 1, 2, 0
		}
	})
	best := func(bytes int64, fn func(lo, hi int64)) float64 {
		var gbps float64
		for rep := 0; rep < 3; rep++ {
			if d := split(fn); d > 0 {
				gbps = max(gbps, float64(bytes)/d.Seconds()/1e9)
			}
		}
		return gbps
	}
	m.CopyGBps = best(2*8*elems, func(lo, hi int64) { copy(c[lo:hi], a[lo:hi]) })
	m.TriadGBps = best(3*8*elems, func(lo, hi int64) {
		x, y, z := a[lo:hi], b[lo:hi], c[lo:hi]
		for i := range x {
			x[i] = y[i] + 3*z[i]
		}
	})
}
