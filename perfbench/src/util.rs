//! Small shared helpers: order statistics, peak RSS, a seeded RNG and
//! the metric list every phase hands back.

use std::time::Instant;

/// The `q`-quantile of `samples` by linear interpolation between the
/// two nearest ranks (`q = 0.5` is the median). `NaN` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// CPU time this process has used so far, all its threads together
/// (exited ones too), in ms: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
/// Unlike wall time it leaves out the time a thread was ready to run but
/// had no CPU, whether other tasks held it or the hypervisor stole it
/// (Linux subtracts steal time from the task clock).
pub fn cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit Linux
    // layout) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set, so that
/// [`peak_rss_mb`] reports the peak from here on.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// SplitMix64: the benchmark's own request-mix generator, so the traffic
/// is a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, String);

/// One op's row group of the layer table: op, wall ms, `(layer, ms)`.
pub type Breakdown = (&'static str, f64, Vec<(&'static str, f64)>);

/// What one phase run hands back to the run that started it.
#[derive(Default)]
pub struct Outcome {
    /// Metrics (end-to-end when untraced, per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// One line per wrong answer found by the checks.
    pub wrong: Vec<String>,
    /// Traced runs: per op, its wall-time median (ms) and its layers'.
    pub breakdown: Vec<Breakdown>,
    /// Per-op wall-time medians (ms), to compare traced with untraced.
    pub op_ms: Vec<(&'static str, f64)>,
    /// The samples behind metrics that are a median of samples, so that
    /// the run can pool them across a phase's slices.
    pub samples: Vec<(String, Vec<f64>)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_owned(), value, unit.to_owned()));
    }

    /// A metric that is the median of `samples`, kept for pooling.
    pub fn median_metric(&mut self, name: &str, samples: Vec<f64>, unit: &str) {
        self.metric(name, median(&samples), unit);
        self.samples.push((name.to_owned(), samples));
    }

    /// Records `n` operations that answered wrongly (they also count as
    /// failed).
    pub fn wrong(&mut self, n: u64, what: String) {
        self.failed += n;
        self.wrong.push(what);
    }

    /// Records an operation that failed or was refused: no answer to
    /// check, so not a wrong one.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("perfbench: failed: {what}");
    }
}
