//! Measurement plumbing: host clocks, memory high-water mark, payload
//! patterns, order statistics and the machine fingerprint.

use std::hint::black_box;
use std::time::Instant;

use sdr_erasure::{Crc32c, Kernel};
use sdr_sim::{trace_enabled, Engine, QueueKind};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by every thread of this process
/// (the engine thread and the erasure-pool workers alike).
pub fn cpu_time_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and the
    // clock id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU time of one timed region, accumulated across calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stopwatch {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Stopwatch {
    /// Runs `f`, adding its wall and process CPU time to the totals.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (w0, c0) = (Instant::now(), cpu_time_s());
        let r = f();
        self.cpu_s += cpu_time_s() - c0;
        self.wall_s += w0.elapsed().as_secs_f64();
        r
    }
}

/// Wall seconds `f` takes.
pub fn wall<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A deterministic byte stream (xorshift64*), eight bytes per step.
/// Regenerating it from the same seed is how every delivered byte is
/// checked without holding a second copy of the payload.
pub struct Pattern(u64);

impl Pattern {
    pub fn new(seed: u64) -> Pattern {
        Pattern(splitmix(seed) | 1)
    }

    /// Fills `buf` with the next `buf.len()` bytes of the stream;
    /// `buf.len()` must be a multiple of 8 except on the final call.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let v = self.next().to_le_bytes();
            let n = rest.len();
            rest.copy_from_slice(&v[..n]);
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Block size for streaming pattern generation and comparison.
pub const BLOCK: usize = 1 << 20;

/// SplitMix64 finaliser: decorrelates nearby seeds.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of `xs` (mean of the middle pair for even counts); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice (`flow_sweep`'s rule:
/// index `ceil(n·p) − 1`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The highest quantile with at least ten of `n` samples beyond it
/// (`(n − 10) / n`); with ten or fewer samples, the median.
pub fn tail_quantile(n: usize) -> f64 {
    if n <= 10 {
        0.5
    } else {
        (n - 10) as f64 / n as f64
    }
}

/// Harrell–Davis estimate of quantile `q` of an ascending slice: a
/// Beta(q(n+1), (1−q)(n+1))-weighted average of all order statistics.
/// Completion times are quantised by the receivers' poll cadence, so a
/// nearest-rank percentile sits on one of a few grid values for almost
/// every seed; this estimator tracks the underlying distribution instead.
pub fn harrell_davis(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut prev = 0.0;
    let mut acc = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let cdf = beta_inc(a, b, (i + 1) as f64 / n);
        acc += (cdf - prev) * x;
        prev = cdf;
    }
    acc
}

/// Regularised incomplete beta function `I_x(a, b)` (continued fraction,
/// modified Lentz).
fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..100_000 {
        let m = m as f64;
        let m2 = 2.0 * m;
        for aa in [
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ] {
            d = 1.0 + aa * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + aa / c;
            c = if c.abs() < TINY { TINY } else { c };
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = G[0];
    for (i, g) in G.iter().enumerate().skip(1) {
        acc += g / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Jain's fairness index: 1 = perfectly even, 1/n = fully concentrated.
pub fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    sum * sum / (xs.len() as f64 * sum_sq)
}

pub fn queue_name(kind: QueueKind) -> &'static str {
    match kind {
        QueueKind::Wheel => "wheel",
        QueueKind::Heap => "heap",
    }
}

/// Milliseconds a fixed integer loop takes: a yardstick for how fast
/// this machine (and its neighbours' load) was when a result was taken.
fn calibration_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x.wrapping_add(i));
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// What a result depends on besides the code: CPU, core count, the
/// runtime-selected CRC32C and GF(256) kernels, the event-queue backend,
/// the trace kill switch and a calibration loop's time, as one JSON
/// object.
pub fn fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim())
        .replace('"', "'");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"cpu\": \"{cpu}\", \"nproc\": {nproc}, \"crc32c_kernel\": \"{}\", \
         \"gf256_kernel\": \"{}\", \"queue\": \"{}\", \"trace\": {}, \
         \"encode_pool\": {}, \"calibration_ms\": {:.3}}}",
        Crc32c::active().name(),
        Kernel::active().name(),
        queue_name(Engine::new().queue_kind()),
        trace_enabled(),
        sdr_erasure::EncodePool::global().size(),
        calibration_ms()
    )
}
