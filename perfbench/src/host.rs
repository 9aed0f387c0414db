//! Host-speed correction.
//!
//! The reference host is shared with other tenants and alternates, over
//! seconds to minutes, between quiet phases and phases in which all code
//! runs up to about 1.5 times slower. A fixed reference operation owned by
//! the benchmark, timed between the measured calls, follows those phases:
//! scaling each measured time by the reference's nominal time over its
//! recent time reports it at the quiet phase of the reference host. The
//! correction touches no code under test, so a change to the generator
//! moves the corrected time exactly as it moves the raw one.

use crate::stats::median;
use std::collections::VecDeque;
use std::time::Instant;

/// Which fixed operation tracks the host's speed. Each is the
/// benchmark's own code, so no change to the program moves it.
#[derive(Debug, Clone, Copy)]
pub enum Reference {
    /// 2000 small vectors allocated, filled and freed: follows the
    /// generator's allocation-heavy work (cold searches, cache-hit clones)
    /// within about 3% for serve hits on the reference host.
    Alloc,
    /// A dependent chain of 100k floating-point multiply-adds: follows
    /// compiled kernels, whose cycle counts it tracks within about 2%.
    Alu,
    /// A fixed 1 MiB text escaped byte by byte into a growing string:
    /// follows responses that stream megabytes of C, which slow down in
    /// the host's slow phases far more than small allocations do.
    Stream,
}

/// The text `Reference::Stream` escapes: C-like lines with a quote.
fn stream_text() -> &'static str {
    static TEXT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    TEXT.get_or_init(|| {
        let line = "    __m256d t42 = _mm256_fmadd_pd(a, b, c); /* \"x\" */\n";
        line.repeat((1 << 20) / line.len())
    })
}

impl Reference {
    /// Time on the reference host (2-core Xeon, TSC at 2.0 GHz) in its
    /// quiet phase, in microseconds.
    fn nominal_us(self) -> f64 {
        match self {
            Reference::Alloc => 160.0,
            Reference::Alu => 235.0,
            Reference::Stream => 2200.0,
        }
    }

    /// Run the operation once; returns its duration in microseconds.
    fn time_us(self) -> f64 {
        let t = Instant::now();
        match self {
            Reference::Alloc => {
                let v: Vec<Vec<u64>> =
                    (0..2000u64).map(|i| vec![i; 16 + (i % 64) as usize]).collect();
                std::hint::black_box(v);
            }
            Reference::Alu => {
                let mut x = std::hint::black_box(1.000_001f64);
                for _ in 0..100_000 {
                    x = x * 1.000_000_1 + 1e-9;
                }
                std::hint::black_box(x);
            }
            Reference::Stream => {
                let mut out = String::new();
                for ch in std::hint::black_box(stream_text()).chars() {
                    match ch {
                        '"' => out.push_str("\\\""),
                        '\n' => out.push_str("\\n"),
                        c => out.push(c),
                    }
                }
                std::hint::black_box(out);
            }
        }
        t.elapsed().as_secs_f64() * 1e6
    }
}

/// A window of recent reference times.
pub struct HostSpeed {
    reference: Reference,
    recent: VecDeque<f64>,
}

impl HostSpeed {
    const WINDOW: usize = 9;

    /// A window primed with a full set of samples.
    pub fn new(reference: Reference) -> HostSpeed {
        let mut h = HostSpeed { reference, recent: VecDeque::with_capacity(Self::WINDOW) };
        for _ in 0..Self::WINDOW {
            h.sample();
        }
        h
    }

    pub fn sample(&mut self) {
        if self.recent.len() == Self::WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(self.reference.time_us());
    }

    /// Multiply a time measured now by this to report it at the quiet
    /// phase of the reference host.
    pub fn factor(&self) -> f64 {
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        self.reference.nominal_us() / median(&recent)
    }

    /// Run `f` between two reference samples; returns its result, its raw
    /// duration and its corrected duration, in seconds.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        self.sample();
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        self.sample();
        (r, secs, secs * self.factor())
    }
}
