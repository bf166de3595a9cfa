package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU binds every thread of the process to the first CPU it may
// run on. A thread inherits the mask of the thread that creates it, so
// once every thread is bound, threads made later are bound too; the
// loop repeats until no unbound thread has appeared meanwhile.
func pinToOneCPU() (int, error) {
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return -1, fmt.Errorf("sched_getaffinity: %v", e)
	}
	cpu := -1
	for i := 0; i < len(allowed)*64; i++ {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return -1, fmt.Errorf("no CPU in the affinity mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	pinned := map[int]bool{}
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return -1, err
		}
		fresh := false
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || pinned[tid] {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 && e != syscall.ESRCH {
				return -1, fmt.Errorf("sched_setaffinity %d: %v", tid, e)
			}
			pinned[tid], fresh = true, true
		}
		if !fresh {
			return cpu, nil
		}
	}
}
