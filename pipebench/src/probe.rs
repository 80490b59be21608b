//! Measurements taken from outside the program: process and thread CPU
//! clocks, per-thread CPU by thread name, and peak resident memory.

use std::collections::HashMap;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // both clock ids are CPU-time clocks every Linux kernel supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process so far, including
/// threads that have already exited.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor took from this machine's CPUs (all of them
/// summed), from the `steal` column of `/proc/stat`, in nanoseconds.
/// The kernel counts it in clock ticks of 10 ms (USER_HZ = 100).
pub fn steal_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(0, |ticks| ticks * 10_000_000)
}

/// Host steal summed over a set of measured intervals. One interval is
/// often only a few clock ticks long, so the share is taken over the sum.
#[derive(Debug, Default, Clone, Copy)]
pub struct Steal {
    stolen_ns: u64,
    wall_ns: u64,
}

impl Steal {
    /// Adds an interval of `wall_ns` in which `stolen_ns` were stolen.
    pub fn add(&mut self, stolen_ns: u64, wall_ns: u64) {
        self.stolen_ns += stolen_ns;
        self.wall_ns += wall_ns;
    }

    /// Both sets of intervals together.
    pub fn plus(self, other: Steal) -> Steal {
        Steal { stolen_ns: self.stolen_ns + other.stolen_ns, wall_ns: self.wall_ns + other.wall_ns }
    }

    /// Share of the machine's CPU time the host stole, capped at one half.
    pub fn share(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        (self.stolen_ns as f64 / (cpus * self.wall_ns.max(1) as f64)).min(0.5)
    }
}

/// Per-thread CPU time tracked by thread name, from
/// `/proc/self/task/*/{comm,schedstat}`.
///
/// Threads can start and end inside a measured interval, so the tracker
/// remembers each thread's first and last reading: call [`TaskCpu::sample`]
/// at the interval's edges and before dropping anything that owns threads.
/// A thread first seen after the interval began is counted from zero; a
/// thread that exits between two samples loses its last slice.
#[derive(Debug, Default)]
pub struct TaskCpu {
    seen: HashMap<u32, (String, u64, u64)>,
    started: bool,
}

impl TaskCpu {
    /// Starts tracking from the threads alive now.
    pub fn start() -> TaskCpu {
        let mut t = TaskCpu::default();
        t.sample();
        t.started = true;
        t
    }

    /// Reads every live thread's name and CPU time.
    pub fn sample(&mut self) {
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else { return };
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
                continue;
            };
            let path = entry.path();
            let Ok(sched) = std::fs::read_to_string(path.join("schedstat")) else { continue };
            let Some(ns) = sched.split_whitespace().next().and_then(|v| v.parse::<u64>().ok())
            else {
                continue;
            };
            let slot = self.seen.entry(tid).or_insert_with(|| {
                let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
                // A thread born after tracking began ran from zero.
                let base = if self.started { 0 } else { ns };
                (comm.trim().to_string(), base, ns)
            });
            slot.2 = ns;
        }
    }

    /// CPU consumed since [`TaskCpu::start`] by threads whose name starts
    /// with `prefix`.
    pub fn ns_for(&self, prefix: &str) -> u64 {
        self.seen
            .values()
            .filter(|(comm, _, _)| comm.starts_with(prefix))
            .map(|(_, first, last)| last.saturating_sub(*first))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_is_attributed_by_name() {
        let mut cpu = TaskCpu::start();
        let (spun_tx, spun_rx) = std::sync::mpsc::channel();
        let (exit_tx, exit_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::Builder::new()
            .name("probe-spin".into())
            .spawn(move || {
                let start = thread_cpu_ns();
                let mut x = 0u64;
                while thread_cpu_ns() - start < 20_000_000 {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
                spun_tx.send(()).unwrap();
                // Stay alive until the main thread has sampled us.
                exit_rx.recv().unwrap();
            })
            .unwrap();
        spun_rx.recv().unwrap();
        cpu.sample();
        exit_tx.send(()).unwrap();
        worker.join().unwrap();
        assert!(cpu.ns_for("probe-spin") >= 15_000_000, "{}", cpu.ns_for("probe-spin"));
        assert_eq!(cpu.ns_for("no-such-thread"), 0);
        assert!(process_cpu_ns() >= 20_000_000);
        assert!(peak_rss_mb() > 0.0);
    }
}
