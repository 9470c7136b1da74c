package main

import (
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Keeping the CPUs awake while serving is timed.
//
// The sandbox is a microVM whose guest kernel has no cpuidle driver: a CPU
// with nothing to run executes HLT, which hands the core back to the host,
// and the next wake-up — a timer, a channel hand-off to a parked thread, a
// kernel's parallel-for waking the other P — is a host scheduling decision
// whose cost follows the host's load, not the program's. Serving at a light
// load is made of such wake-ups (a 2 ms batching timer and some ten
// goroutine hand-offs per request), and with them left in, the open-loop
// median of the same binary on the same traffic reads 7.5 ms in one
// two-second slice and 18 ms in the next (README.md, "Keeping the CPUs
// awake"). So for the length of the serving phases the benchmark parks one
// spinning child process on each CPU in the kernel's idle scheduling class:
// it runs only when nothing else wants the CPU, any thread of the program
// pre-empts it at once, and the CPU never halts. It is the effect of booting
// with idle=poll, for a process that cannot choose its boot line.

// spinFlag is the hidden first argument that turns this binary into one
// spinning child.
const spinFlag = "--spin-cpu"

// spinMain never returns: it pins its thread to cpu, drops it to SCHED_IDLE
// (or, where that is refused, to nice 19) and spins until the process is
// killed or its standard input — a pipe the parent holds — reaches its end.
func spinMain(cpu int) {
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	mask[cpu/64%len(mask)] = 1 << (cpu % 64)
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19)
	}
	for {
	}
}

// keepAwake starts one spinning child per CPU and returns how many started
// and the function that kills them and waits for each to end (calling it
// again does nothing). Where the children cannot be started the benchmark
// runs without them.
func keepAwake() (n int, stop func()) {
	self, err := os.Executable()
	if err != nil {
		return 0, func() {}
	}
	type child struct {
		cmd   *exec.Cmd
		stdin io.Closer
	}
	var kids []child
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		cmd := exec.Command(self, spinFlag, strconv.Itoa(cpu))
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		in, err := cmd.StdinPipe()
		if err != nil {
			continue
		}
		if cmd.Start() != nil {
			in.Close()
			continue
		}
		kids = append(kids, child{cmd, in})
	}
	return len(kids), func() {
		for _, k := range kids {
			k.cmd.Process.Kill()
			k.stdin.Close()
			k.cmd.Wait()
		}
		kids = nil
	}
}
