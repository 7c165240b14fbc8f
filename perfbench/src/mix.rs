//! Seeded inputs, quantiles and the failure tally shared by the workloads.

use mcb_net::{EpochCtx, EpochOpts};
use mcb_rng::Rng64;
use mcb_serve::{JobResult, JobSpec};
use std::time::Instant;

/// One job of the serve mix: 2/3 sorts and 1/3 selects of 4–12 keys,
/// as in the `tab_serve` bench and the soak test.
pub fn next_job(rng: &mut Rng64) -> JobSpec {
    let n = rng.random_range(4..13usize);
    let keys: Vec<u64> = (0..n).map(|_| rng.random_range(0..10_000u64)).collect();
    if rng.random_range(0..3u32) == 2 {
        let rank = rng.random_range(1..n + 1);
        JobSpec::Select { keys, rank }
    } else {
        JobSpec::Sort { keys }
    }
}

/// The answer computed locally: keys descending, or the `rank`'th largest.
pub fn expected(spec: &JobSpec) -> JobResult {
    match spec {
        JobSpec::Sort { keys } => {
            let mut v = keys.clone();
            v.sort_unstable_by(|a, b| b.cmp(a));
            JobResult::Sorted(v)
        }
        JobSpec::Select { keys, rank } => {
            let mut v = keys.clone();
            v.sort_unstable_by(|a, b| b.cmp(a));
            JobResult::Selected(v[rank - 1])
        }
    }
}

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Groups with fewer jobs than this (a last, partial second) are left out.
const MIN_GROUP: usize = 10;

/// Split `(end, value)` pairs, in time order, into one group per second
/// of the run.
pub fn by_second(timed: &[(Instant, f64)]) -> Vec<Vec<f64>> {
    let mut groups: Vec<Vec<f64>> = Vec::new();
    let Some(&(first, _)) = timed.first() else {
        return groups;
    };
    for &(at, v) in timed {
        let g = at.duration_since(first).as_secs() as usize;
        groups.resize_with(groups.len().max(g + 1), Vec::new);
        groups[g].push(v);
    }
    groups
}

/// The median over groups of each group's `q`-quantile: a slow stretch
/// of the host then moves only the groups it falls in.
pub fn group_quantile(groups: &[Vec<f64>], q: f64) -> f64 {
    let mut per: Vec<f64> = groups
        .iter()
        .filter(|g| g.len() >= MIN_GROUP)
        .map(|g| quantile(&mut g.clone(), q))
        .collect();
    median(&mut per)
}

/// Operations attempted and how the failed ones failed. Every failure
/// counts in `fail_frac`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    /// Refused by admission.
    pub shed: u64,
    /// Admitted but ended `Failed`, or a typed engine error.
    pub failed: u64,
    /// An answer, journal checksum or cycle count that does not match.
    pub wrong: u64,
    /// No answer, or no journal line, for an attempted operation.
    pub missing: u64,
}

impl Tally {
    pub fn failures(&self) -> u64 {
        self.shed + self.failed + self.wrong + self.missing
    }

    pub fn fail_frac(&self) -> f64 {
        self.failures() as f64 / self.attempted.max(1) as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cycles of one census sweep on `MCB(p, k)`: the census cost with no
/// retries. A reconfiguration whose first sweep succeeds costs this much.
pub fn census_sweep(p: usize, k: usize) -> u64 {
    let once = EpochOpts {
        census_retries: 0,
        ..EpochOpts::default()
    };
    EpochCtx::census_cost(p, k, &once)
}

/// Pin this thread, and so every thread it starts later, to the highest
/// CPU it may run on; return that CPU. On a shared host, hand-offs
/// between threads on different CPUs wait for the other CPU to wake, and
/// that wait is most of the run-to-run spread (see NOTES.md).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is writable for `size` bytes for the whole call, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is readable for `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    Err(std::io::Error::other("CPU pinning needs Linux"))
}

/// Let the C allocator keep one arena. glibc sizes its arena limit by the
/// CPUs online, not the one this process runs on, and opens a new arena
/// when a lock is contended, so how many arenas a run touches, and its
/// peak resident set, depended on thread timing.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn one_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` takes two integers and is called before any other
    // thread exists.
    unsafe { mallopt(M_ARENA_MAX, 1) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn one_malloc_arena() {}
