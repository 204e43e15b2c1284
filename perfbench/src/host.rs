//! The host the numbers were measured on: CPU sets, pinning, the
//! toolchain, the kernel, steal time, and the driver's peak memory.

use std::process::Command;
use std::time::Instant;

/// Bytes in glibc's `cpu_set_t` (1024 CPUs).
const SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// The CPUs this thread may run on, as the kernel reports them; falls
/// back to `0..available_parallelism` if the call fails.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly `SET_BYTES` bytes,
    // the size passed to the call; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, SET_BYTES, mask.as_mut_ptr()) };
    if rc != 0 {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        return (0..n).collect();
    }
    (0..SET_BYTES * 8)
        .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .collect()
}

/// Restrict the calling thread — and every thread and process it
/// starts afterwards, which inherit the mask — to `cpus`. Returns
/// whether the kernel accepted the mask.
pub fn pin(cpus: &[usize]) -> bool {
    let mut mask = [0u8; SET_BYTES];
    for &c in cpus.iter().filter(|&&c| c < SET_BYTES * 8) {
        mask[c / 8] |= 1 << (c % 8);
    }
    // SAFETY: `mask` is a readable buffer of exactly `SET_BYTES` bytes,
    // the size passed to the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, SET_BYTES, mask.as_ptr()) == 0 }
}

/// Sum of the `steal` column of the aggregate `cpu` line of
/// `/proc/stat`, in USER_HZ ticks (`None` where the file is absent).
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Time the hypervisor has taken from `cpus` so far, in ms: the sum of
/// the `steal` column of their `cpuN` lines in `/proc/stat` (0 where
/// the file is absent). It moves in ticks of 1/`CLK_TCK` s.
pub fn steal_ms(cpus: &[usize]) -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let ticks: f64 = stat
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let cpu: usize = f.next()?.strip_prefix("cpu")?.parse().ok()?;
            if !cpus.contains(&cpu) {
                return None;
            }
            f.nth(7)?.parse::<f64>().ok()
        })
        .sum();
    ticks * 1e3 / clock_ticks_per_s()
}

fn clock_ticks_per_s() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    /// `_SC_CLK_TCK` on Linux.
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes a plain integer and touches no memory.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// The driver process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `rustc -vV`, folded onto one line (the toolchain that built the
/// benchmark when it is the one on `PATH`).
pub fn rustc_version() -> String {
    match Command::new("rustc").arg("-vV").output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.is_empty())
            .collect::<Vec<_>>()
            .join("; "),
        _ => "unavailable".to_string(),
    }
}

pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Keys the host probe sorts: 128 KiB, more than L1 and well inside L2.
const PROBE_KEYS: usize = 1 << 15;

/// A fixed piece of work, independent of the program under test, whose
/// time tracks how fast the host runs this process right now. On a
/// shared VM the host slows every job by up to 1.8x for stretches of
/// seconds (co-tenants contending for the core's caches, not steal
/// time: the lost time shows up as user time). A pure ALU loop does not
/// see those stretches and a DRAM pointer chase sees others; sorting a
/// buffer that lives in L2 tracks the simulator's slow stretches
/// closely (correlation 0.85 over 700 paired readings).
pub struct HostProbe {
    keys: Vec<u32>,
    calls: u32,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        HostProbe {
            keys: vec![0; PROBE_KEYS],
            calls: 0,
        }
    }

    /// Fill the buffer with fresh pseudo-random keys and sort it; the
    /// elapsed time in ns.
    pub fn time_ns(&mut self) -> u64 {
        let t = Instant::now();
        self.calls = self.calls.wrapping_add(1);
        let mut x = self.calls.wrapping_mul(0x9e37_79b9) | 1;
        for k in self.keys.iter_mut() {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            *k = x;
        }
        self.keys.sort_unstable();
        std::hint::black_box(&self.keys);
        t.elapsed().as_nanos() as u64
    }
}

/// Where each backend runs: the single-logical-thread backends pinned
/// to one CPU — the highest-numbered allowed one, as CPU 0 usually takes
/// more interrupts — and parallel jobs on every allowed CPU.
pub struct Placement {
    pub all: Vec<usize>,
    pub one: Vec<usize>,
    /// The mask in force (`None`: not set yet).
    current: Option<Vec<usize>>,
}

impl Placement {
    pub fn detect() -> Placement {
        let all = allowed_cpus();
        let one = vec![*all.last().expect("at least one CPU is allowed")];
        Placement {
            all,
            one,
            current: None,
        }
    }

    /// The one CPU (`true`) or every allowed CPU.
    pub fn cpus(&self, one: bool) -> &[usize] {
        if one {
            &self.one
        } else {
            &self.all
        }
    }

    /// Pin to the one CPU (`true`) or to every allowed CPU.
    pub fn pin(&mut self, one: bool) {
        let mask = if one { &self.one } else { &self.all };
        if self.current.as_ref() != Some(mask) {
            if !pin(mask) {
                println!("note: could not pin to cpus {}", fmt_cpus(mask));
            }
            self.current = Some(mask.clone());
        }
    }
}

pub fn fmt_cpus(cpus: &[usize]) -> String {
    let list: Vec<String> = cpus.iter().map(|c| c.to_string()).collect();
    format!("{{{}}}", list.join(","))
}
