package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_setaffinity(2) mask.
type cpuSet [16]uint64

func oneCPU(cpu int) cpuSet {
	var s cpuSet
	s[cpu/64] |= 1 << (cpu % 64)
	return s
}

func (s cpuSet) list() []int {
	var out []int
	for i := 0; i < len(s)*64; i++ {
		if s[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// getAffinity and setAffinity act on the calling thread; a child forked
// from it inherits the mask for all its threads.
func getAffinity() (cpuSet, error) {
	var s cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return s, errno
	}
	return s, nil
}

func setAffinity(s cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return errno
	}
	return nil
}

// placement is where a run's processes go. A one-client closed loop is a
// ping-pong between the generator and the daemon. On two CPUs each side
// halts while it waits and is woken through the hypervisor, and most of a
// cached request's round trip is that wake-up, which the host varies from
// minute to minute (0.09 to 0.17 ms for the same binaries). On one CPU the
// hand-over is a context switch and the round trip is the CPU work of the
// two sides. So the generator and a point workload's daemon share the last
// allowed CPU, and everything else — the compiler, the set-up tools,
// `flatnet run` passes, the wide daemons with their parallel sweeps — may
// use them all.
type placement struct {
	split bool   // there is more than one CPU to choose from
	all   cpuSet // what the bench was started with
	cpu   int    // the generator's and the pinned daemons' CPU
}

const placementEnv = "FLATNET_BENCH_CPUS" // the original mask, handed across pinSelf's exec

// findPlacement reads the CPUs this process may use — from the environment
// when pinSelf has already narrowed this process to one of them.
func findPlacement() placement {
	var pl placement
	if v := os.Getenv(placementEnv); v != "" {
		for _, f := range strings.Split(v, ",") {
			if cpu, err := strconv.Atoi(f); err == nil && cpu >= 0 && cpu < len(pl.all)*64 {
				pl.all[cpu/64] |= 1 << (cpu % 64)
			}
		}
	} else if s, err := getAffinity(); err == nil {
		pl.all = s
	}
	if cpus := pl.all.list(); len(cpus) >= 2 {
		pl.split, pl.cpu = true, cpus[len(cpus)-1]
	}
	return pl
}

// startOn runs cmd.Start with the calling thread's affinity set to mask, so
// that the child and all its threads inherit it, and puts the thread's own
// mask back.
func (pl placement) startOn(mask cpuSet, cmd *exec.Cmd) error {
	if !pl.split {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	own, err := getAffinity()
	if err != nil || setAffinity(mask) != nil {
		return cmd.Start() // the kernel refuses: run unpinned
	}
	defer setAffinity(own)
	return cmd.Start()
}

// pinSelf moves the whole bench process onto the placement's CPU. Only the
// calling thread's mask can be set, and the Go runtime has threads running
// already, so it sets the mask and execs itself: the new image starts with
// one thread and every later thread inherits. It returns only if there is
// nothing to do or the kernel refused, and the run goes on unpinned.
func pinSelf() {
	if os.Getenv(placementEnv) != "" {
		return
	}
	pl := findPlacement()
	if !pl.split {
		return
	}
	exe, err := os.Executable()
	if err != nil {
		return
	}
	var cpus []string
	for _, c := range pl.all.list() {
		cpus = append(cpus, strconv.Itoa(c))
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if setAffinity(oneCPU(pl.cpu)) != nil {
		return
	}
	_ = syscall.Exec(exe, os.Args, append(os.Environ(), placementEnv+"="+strings.Join(cpus, ",")))
	_ = setAffinity(pl.all)
}
