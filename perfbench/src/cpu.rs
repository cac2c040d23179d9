//! CPU placement for `serve-tcp`: the server process and the load
//! generator's connection threads share one CPU.
//!
//! Two connection threads and the server's reader and worker threads
//! are more threads than the two CPUs of the machine the load is sized
//! for. Left to the scheduler, or with the server and the client pinned
//! to different CPUs, a request's two wakeups cross CPUs, and what they
//! cost depends on whether the other CPU is idle, busy, or taken away by
//! the host: per-pass round trips flipped between modes in phases, and a
//! run with steal ticks had its p99 at 1.3 ms against 0.5 ms for the
//! runs around it. On one CPU every wakeup is a local context switch
//! and the round trip is the CPU time of both sides plus the scheduler's
//! handoffs, which repeat from run to run.

use std::os::unix::process::CommandExt;
use std::process::Command;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Mask words: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

/// The lowest CPU this process may run on.
pub fn first_allowed() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the kernel writes at most `size` bytes into `mask`.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    (0..MASK_WORDS * 64).find(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
}

/// Restricts the calling thread, and the threads and processes it
/// starts afterwards, to `cpu`; false if the kernel refused.
pub fn pin(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes from `mask`.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Makes `command`'s process, and every thread it starts, run on `cpu`.
pub fn pin_command(command: &mut Command, cpu: usize) {
    // SAFETY: between fork and exec the closure makes one system call,
    // which is async-signal-safe, and allocates nothing.
    unsafe {
        command.pre_exec(move || {
            pin(cpu);
            Ok(())
        });
    }
}
