//! Measured-performance autotuning: run emitted C on real hardware.
//!
//! Every ranking signal elsewhere in the crate comes from the modeled
//! scheduler in `slingen-perf`; the paper's numbers are wall-clock on a
//! real Sandy Bridge. This module closes that loop: [`HardwareMeasurer`]
//! compiles the emitted C into a standalone timing harness
//! (`slingen_cir::unparse::to_c_harness`) with a C compiler shelled out
//! per target, runs it, and parses a median-of-min cycle estimate back.
//! It times the same workload as the model (`workload::buffers`).
//! Each measurer compiles into a directory of its own, keyed by a digest
//! of the full harness source, so a kernel timed again through the same
//! measurer never recompiles; the directory is removed when the measurer
//! is dropped, so nothing is left behind.
//!
//! The tuner uses these in a two-stage flow (model pruning, hardware
//! re-ranking of the top-K survivors; see `tuner::tune`), and
//! [`calibrate`] fits per-op latencies/throughputs from generated
//! microbenchmark chains to quantify where the shipped cost tables
//! drift from the host — most importantly the divider, which alone
//! decides the small-`potrf` winners.
//!
//! Everything here degrades gracefully: any failure (no compiler,
//! compile error, harness crash, a harness killed at the run deadline) is
//! an [`HwError`] with a reason, and callers fall back to the model-only
//! flow, logging why.

use crate::workload;
use slingen_cir::unparse::{digest_str, to_c_harness, HarnessOpts};
use slingen_cir::{BufKind, Function, Target};
use slingen_ir::Program;
use slingen_perf::MeasuredTime;
use slingen_vm::{BufferSet, NullMonitor};
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Which signal ranks variants in the autotuner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeasureMode {
    /// Model-only (the historical flow): the scheduler's cycle estimate
    /// is the final ranking.
    #[default]
    Model,
    /// Two-stage: model for pruning, hardware timing for the final
    /// ranking of the top-K surviving distinct kernels. Falls back to
    /// `Model` (with a logged reason) when no C compiler works.
    Hardware,
}

/// How many top distinct kernels (by modeled cycles) get hardware
/// timing in stage two.
pub(crate) const TOP_K: usize = 3;
/// Untimed warm-up calls per harness run.
const WARMUP: u32 = 20;
/// Timing repetitions per harness run (median over these).
const REPS: u32 = 9;
/// Calls per repetition (minimum over these).
const INNER: u32 = 30;

/// Wall-clock limit for one harness or microbenchmark run. A harness
/// makes a few hundred calls of one small kernel and a microbenchmark
/// times a few hundred thousand dependent operations, both well under a
/// second; a run still going at the deadline is hung and gets killed.
const RUN_DEADLINE: Duration = Duration::from_secs(30);

/// Configuration for the measured-autotuning path, carried on
/// `Options::measure`. The default is pure model mode, which
/// contributes nothing to cache keys and changes no behavior.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MeasureConfig {
    /// Ranking mode; see [`MeasureMode`].
    pub mode: MeasureMode,
    /// C compiler to shell out to; `None` uses `cc` from `PATH`.
    pub compiler: Option<PathBuf>,
    /// Directory under which each [`HardwareMeasurer`] makes (and, on
    /// drop, removes) its own subdirectory of compiled harnesses; `None`
    /// uses [`std::env::temp_dir`].
    pub artifact_dir: Option<PathBuf>,
}

impl MeasureConfig {
    /// The hardware two-stage configuration.
    pub fn hardware() -> MeasureConfig {
        MeasureConfig { mode: MeasureMode::Hardware, ..MeasureConfig::default() }
    }

    /// Whether the tuner should attempt the hardware re-ranking stage.
    pub fn wants_hardware(&self) -> bool {
        self.mode == MeasureMode::Hardware
    }

    /// The cache-key contribution of this config. Empty in model mode,
    /// so default keys — and therefore existing persisted caches — are
    /// byte-identical to the pre-measurement format.
    pub(crate) fn cache_key_suffix(&self) -> String {
        match self.mode {
            MeasureMode::Model => String::new(),
            MeasureMode::Hardware => format!(
                "|measure:hw,k{TOP_K},w{WARMUP},r{REPS},i{INNER},cc={}",
                self.compiler.as_deref().unwrap_or(Path::new("cc")).display()
            ),
        }
    }
}

/// Why hardware measurement could not produce a number. Callers treat
/// any `HwError` as "fall back to the model", logging the reason.
#[derive(Debug, Clone)]
pub struct HwError(pub String);

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for HwError {}

/// Compiles emitted C into a timing harness and runs it on this host.
///
/// Construction probes the compiler once (`--version`); a failing probe
/// is an immediate [`HwError`], so searches discover "no compiler" once
/// instead of per candidate. Harnesses are compiled into a fresh
/// `slingen-artifacts-*` directory private to this measurer, which
/// dropping the measurer removes.
pub struct HardwareMeasurer {
    target: Target,
    compiler: PathBuf,
    artifact_dir: PathBuf,
}

impl HardwareMeasurer {
    /// Probe the configured compiler and create this measurer's artifact
    /// directory.
    ///
    /// # Errors
    ///
    /// [`HwError`] if the compiler does not run or the artifact
    /// directory cannot be created.
    pub fn new(target: Target, cfg: &MeasureConfig) -> Result<HardwareMeasurer, HwError> {
        let compiler = cfg.compiler.clone().unwrap_or_else(|| PathBuf::from("cc"));
        let probe = Command::new(&compiler).arg("--version").output().map_err(|e| {
            HwError(format!("C compiler `{}` not runnable: {e}", compiler.display()))
        })?;
        if !probe.status.success() {
            return Err(HwError(format!(
                "C compiler `{}` failed its version probe",
                compiler.display()
            )));
        }
        let parent = cfg.artifact_dir.clone().unwrap_or_else(std::env::temp_dir);
        let artifact_dir = private_dir(&parent).map_err(|e| {
            HwError(format!("artifact dir under {} not creatable: {e}", parent.display()))
        })?;
        Ok(HardwareMeasurer { target, compiler, artifact_dir })
    }

    /// The ISA flags the harness needs for this target's intrinsics.
    fn target_cflags(&self) -> &'static [&'static str] {
        match self.target {
            Target::Scalar => &[],
            Target::Sse2 => &["-msse2"],
            Target::Avx2 => &["-mavx"],
            Target::Avx2Fma => &["-mavx2", "-mfma"],
        }
    }

    /// Compile `source` (cached by digest) and return the binary path.
    fn compile(&self, source: &str) -> Result<PathBuf, HwError> {
        let (hash, len) = digest_str(source);
        let bin = self.artifact_dir.join(format!("h{hash:016x}-{len}-{}", self.target));
        if bin.exists() {
            return Ok(bin); // artifact cache hit: identical harness, no recompile
        }
        let src = bin.with_extension("c");
        std::fs::write(&src, source)
            .map_err(|e| HwError(format!("write {} failed: {e}", src.display())))?;
        let out = Command::new(&self.compiler)
            .args(["-std=c99", "-O2"])
            .args(self.target_cflags())
            .arg("-o")
            .arg(&bin)
            .arg(&src)
            .arg("-lm")
            .output()
            .map_err(|e| HwError(format!("compiler `{}` failed: {e}", self.compiler.display())))?;
        if !out.status.success() {
            // never reuse whatever a failed compile left behind
            let _ = std::fs::remove_file(&bin);
            // Surface the first real diagnostic, not the "In function"
            // preamble gcc prints ahead of it.
            let stderr = String::from_utf8_lossy(&out.stderr);
            let diag = stderr
                .lines()
                .find(|l| l.contains("error:"))
                .or_else(|| stderr.lines().next())
                .unwrap_or("(no diagnostics)");
            return Err(HwError(format!("harness compile failed: {diag}")));
        }
        Ok(bin)
    }

    /// Run a compiled harness, check its `SLINGEN_CHECK` line against the
    /// VM checksum `expected` ([`vm_checksum`]), and parse its
    /// `SLINGEN_MEASURE` line.
    fn run(&self, bin: &Path, expected: (f64, f64)) -> Result<MeasuredTime, HwError> {
        let out = run_with_deadline(bin, RUN_DEADLINE)?;
        if !out.status.success() {
            return Err(HwError(format!("harness exited with {}", out.status)));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        check_checksum(&stdout, expected)?;
        parse_measure_line(&stdout)
            .ok_or_else(|| HwError(format!("harness output unparseable: {stdout:?}")))
    }

    /// Emit, compile (or reuse), and time the harness for one function.
    /// The harness's output checksum must match the VM's, so a
    /// miscompiled harness cannot time a no-op.
    ///
    /// # Errors
    ///
    /// [`HwError`] on any compile/run/parse failure or checksum mismatch.
    pub fn measure_c(
        &self,
        function: &Function,
        inits: &[Vec<f64>],
    ) -> Result<MeasuredTime, HwError> {
        let opts = HarnessOpts { inits, warmup: WARMUP, reps: REPS, inner: INNER };
        let source = to_c_harness(function, self.target, &opts);
        let bin = self.compile(&source)?;
        self.run(&bin, vm_checksum(function, inits)?)
    }

    /// Time one lowered function on the program's canonical workload
    /// (deterministic per `seed`).
    ///
    /// # Errors
    ///
    /// [`HwError`] when no timing could be produced; callers fall back
    /// to the model.
    pub fn measure(
        &self,
        program: &Program,
        function: &Function,
        seed: u64,
    ) -> Result<MeasuredTime, HwError> {
        self.measure_c(function, &param_inits(program, function, seed))
    }
}

impl Drop for HardwareMeasurer {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.artifact_dir);
    }
}

/// Create a new, empty `slingen-artifacts-<pid>-<n>` directory under
/// `parent` (creating `parent` if needed): one per measurer, so measurers
/// in one process or in concurrent processes never share a directory,
/// and dropping one cannot delete another's artifacts.
fn private_dir(parent: &Path) -> std::io::Result<PathBuf> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::fs::create_dir_all(parent)?;
    loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("slingen-artifacts-{}-{n}", std::process::id()));
        match std::fs::create_dir(&dir) {
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            made => return made.map(|()| dir),
        }
    }
}

/// Run the binary `bin` to completion and collect its output, killing it
/// once it has run for `deadline`. A killed run is an [`HwError`] naming
/// the timeout, so callers fall back to the model instead of hanging.
fn run_with_deadline(bin: &Path, deadline: Duration) -> Result<Output, HwError> {
    let failed = |e: std::io::Error| HwError(format!("{} failed to run: {e}", bin.display()));
    let mut child = Command::new(bin)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(failed)?;
    let start = Instant::now();
    let mut poll = Duration::from_millis(1);
    while child.try_wait().map_err(failed)?.is_none() {
        if start.elapsed() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(HwError(format!(
                "timeout: {} ran past the {deadline:?} deadline and was killed",
                bin.display()
            )));
        }
        std::thread::sleep(poll);
        poll = (poll * 2).min(Duration::from_millis(20));
    }
    child.wait_with_output().map_err(failed)
}

/// Initial contents for each *parameter* buffer, in `Function::params`
/// order — what the timing harness bakes into its pristine copies.
pub(crate) fn param_inits(program: &Program, function: &Function, seed: u64) -> Vec<Vec<f64>> {
    let bufs = workload::buffers(program, function, seed);
    function.params().map(|(id, _)| bufs.get(id).to_vec()).collect()
}

fn parse_measure_line(stdout: &str) -> Option<MeasuredTime> {
    let line = stdout.lines().find(|l| l.starts_with("SLINGEN_MEASURE "))?;
    let mut toks = line.split_whitespace().skip(1);
    let mut cycles = None;
    let mut ns = None;
    let mut reps = None;
    while let Some(key) = toks.next() {
        let val = toks.next()?;
        match key {
            "cycles" => cycles = val.parse::<f64>().ok(),
            "ns" => ns = val.parse::<f64>().ok(),
            "reps" => reps = val.parse::<u32>().ok(),
            _ => {} // tsc_hz and future fields: informative only
        }
    }
    Some(MeasuredTime { cycles: cycles?, ns: ns?, reps: reps? })
}

/// The checksum the harness prints, computed by running `function` once
/// in the VM from the same inputs: the sum over every non-`ParamIn`
/// parameter buffer in `Function::params` order, and the sum of their
/// magnitudes (the scale of the comparison tolerance).
fn vm_checksum(function: &Function, inits: &[Vec<f64>]) -> Result<(f64, f64), HwError> {
    let mut bufs = BufferSet::for_function(function);
    for ((id, _), init) in function.params().zip(inits) {
        // the harness zero-fills a short init the same way
        let mut data = vec![0.0; bufs.get(id).len()];
        let n = init.len().min(data.len());
        data[..n].copy_from_slice(&init[..n]);
        bufs.set(id, &data);
    }
    slingen_vm::execute(function, &mut bufs, &mut NullMonitor)
        .map_err(|e| HwError(format!("VM checksum run failed: {e}")))?;
    let (mut sum, mut mag) = (0.0f64, 0.0f64);
    for (id, decl) in function.params() {
        if decl.kind != BufKind::ParamIn {
            for &x in bufs.get(id) {
                sum += x;
                mag += x.abs();
            }
        }
    }
    Ok((sum, mag))
}

/// Compare the harness's `SLINGEN_CHECK` line with the VM checksum
/// `(sum, magnitude)`: they must agree within 1e-9 relative to the
/// magnitude. A missing, unparseable, or non-finite checksum is a
/// mismatch.
fn check_checksum(stdout: &str, (sum, mag): (f64, f64)) -> Result<(), HwError> {
    let got = stdout
        .lines()
        .find_map(|l| l.strip_prefix("SLINGEN_CHECK "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or_else(|| HwError("harness printed no parseable SLINGEN_CHECK line".into()))?;
    if got.is_finite() && (got - sum).abs() <= 1e-9 * mag.max(f64::MIN_POSITIVE) {
        Ok(())
    } else {
        Err(HwError(format!("harness checksum {got} does not match the VM's {sum}")))
    }
}

// ---------------------------------------------------------------------
// Calibration: fit per-op latencies/throughputs from microbenchmarks.
// ---------------------------------------------------------------------

/// One fitted per-op cost: dependent-chain latency and independent-
/// stream throughput, in cycles resp. ops/cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct OpCost {
    /// `add` | `mul` | `fma` | `div` | `sqrt`, or the vector-only lane
    /// moves `shuf` (an in-lane `shuffle_pd`) and `xlane` (a 256-bit
    /// `permute2f128_pd` across the 128-bit lanes).
    pub op: &'static str,
    /// Vector (target width) or scalar form.
    pub vector: bool,
    /// Cycles per op on a serially dependent chain.
    pub latency: f64,
    /// Ops per cycle across independent streams.
    pub throughput: f64,
}

/// Fitted per-op costs for one target on this host.
#[derive(Debug, Clone)]
pub struct Calibration {
    pub target: Target,
    pub ops: Vec<OpCost>,
}

impl Calibration {
    /// The fitted cost for one `(op, vector)` entry.
    pub fn get(&self, op: &str, vector: bool) -> Option<&OpCost> {
        self.ops.iter().find(|c| c.op == op && c.vector == vector)
    }
}

/// Emit one microbenchmark source: a dependent chain (latency) and an
/// 8-stream independent sweep (throughput) of `op`, timed the same way
/// as the kernel harness and printed as `SLINGEN_CAL lat <f> thr <f>`.
fn microbench_source(op: &'static str, vector: bool, width: usize, iters: u32) -> String {
    let mut s = String::new();
    use std::fmt::Write;
    let _ = writeln!(s, "/* slingen calibration microbenchmark: {op} vector={vector} */");
    let _ = writeln!(s, "#include <stdio.h>");
    let _ = writeln!(s, "#include <math.h>");
    if vector {
        let _ = writeln!(s, "#include <immintrin.h>");
    }
    let _ = writeln!(s, "#include <time.h>");
    let _ = writeln!(s, "#if defined(__x86_64__) || defined(__i386__)");
    let _ = writeln!(s, "#include <x86intrin.h>");
    let _ =
        writeln!(s, "static unsigned long long now(void) {{ _mm_lfence(); return __rdtsc(); }}");
    let _ = writeln!(s, "#else");
    let _ = writeln!(s, "static unsigned long long now(void) {{");
    let _ = writeln!(s, "  struct timespec ts; clock_gettime(CLOCK_MONOTONIC, &ts);");
    let _ = writeln!(s, "  return (unsigned long long)ts.tv_sec * 1000000000ull + ts.tv_nsec;");
    let _ = writeln!(s, "}}");
    let _ = writeln!(s, "#endif");

    // `X` marks the chained value; the latency loop substitutes `x`,
    // the throughput loop one of 8 independent `y<k>` streams.
    let (ty, one, template): (String, String, String) = if vector {
        let (pre, ty) = match width {
            2 => ("_mm", "__m128d".to_string()),
            _ => ("_mm256", "__m256d".to_string()),
        };
        let one = format!("{pre}_set1_pd(1.0000001)");
        let t = match op {
            "add" => format!("{pre}_add_pd(X, c)"),
            "mul" => format!("{pre}_mul_pd(X, c)"),
            "fma" => format!("{pre}_fmadd_pd(X, c, c)"),
            "div" => format!("{pre}_div_pd(X, c)"),
            // lane 0 of each 128-bit half takes the half's lane 1 of X
            "shuf" => format!("{pre}_shuffle_pd(X, c, {})", if width == 2 { 1 } else { 5 }),
            // the low half takes X's high half
            "xlane" => format!("{pre}_permute2f128_pd(X, c, 0x21)"),
            _ => format!("{pre}_sqrt_pd({pre}_add_pd(X, c))"),
        };
        (ty, one, t)
    } else {
        let t = match op {
            "add" => "X + c",
            "mul" => "X * c",
            "fma" => "fma(X, c, c)",
            "div" => "X / c",
            _ => "sqrt(X + c)",
        };
        ("double".to_string(), "1.0000001".to_string(), t.to_string())
    };
    let expr_dep = format!("x = {};", template.replace('X', "x"));
    let expr_str = format!("y@ = {};", template.replace('X', "y@"));

    let lanes = if vector { width } else { 1 };
    // GCC enables autovectorization at -O2 since GCC 12; keep the
    // scalar throughput streams scalar so the fit measures what the
    // model charges for.
    let _ = writeln!(s, "#if defined(__GNUC__) && !defined(__clang__)");
    let _ = writeln!(s, "#define SLINGEN_NOVEC __attribute__((optimize(\"no-tree-vectorize\")))");
    let _ = writeln!(s, "#else");
    let _ = writeln!(s, "#define SLINGEN_NOVEC");
    let _ = writeln!(s, "#endif");
    // Latency: one dependent chain of `iters` ops.
    let _ = writeln!(s, "static double SLINGEN_NOVEC bench_lat(void) {{");
    let _ = writeln!(s, "  volatile {ty} seed; seed = {one};");
    let _ = writeln!(s, "  {ty} x = seed, c = {one};");
    let _ = writeln!(s, "  unsigned long long a = now();");
    let _ = writeln!(s, "  for (unsigned i = 0; i < {iters}u; i++) {{ {expr_dep} }}");
    let _ = writeln!(s, "  unsigned long long b = now();");
    let _ = writeln!(s, "  volatile {ty} sink; sink = x; (void)sink;");
    let _ = writeln!(s, "  return (double)(b - a) / {iters}.0;");
    let _ = writeln!(s, "}}");
    // Throughput: 8 independent chains interleaved.
    let _ = writeln!(s, "static double SLINGEN_NOVEC bench_thr(void) {{");
    let _ = writeln!(s, "  volatile {ty} seed; seed = {one};");
    let _ = write!(s, "  {ty} c = {one}");
    for k in 0..8 {
        let _ = write!(s, ", y{k} = seed");
    }
    let _ = writeln!(s, ";");
    let _ = writeln!(s, "  unsigned long long a = now();");
    let _ = writeln!(s, "  for (unsigned i = 0; i < {iters}u; i++) {{");
    for k in 0..8 {
        let _ = writeln!(s, "    {}", expr_str.replace('@', &k.to_string()));
    }
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "  unsigned long long b = now();");
    for k in 0..8 {
        let _ = writeln!(s, "  volatile {ty} sink{k}; sink{k} = y{k}; (void)sink{k};");
    }
    let _ = writeln!(s, "  return (double)(8u * {iters}u) / (double)(b - a);");
    let _ = writeln!(s, "}}");
    let _ = writeln!(s, "int main(void) {{");
    let _ = writeln!(s, "  double lat = 1e300, thr = 0.0;");
    let _ = writeln!(s, "  for (int r = 0; r < 5; r++) {{");
    let _ = writeln!(s, "    double l = bench_lat(); if (l < lat) lat = l;");
    let _ = writeln!(s, "    double t = bench_thr(); if (t > thr) thr = t;");
    let _ = writeln!(s, "  }}");
    let _ =
        writeln!(s, "  printf(\"SLINGEN_CAL lat %.17g thr %.17g lanes {lanes}\\n\", lat, thr);");
    let _ = writeln!(s, "  return 0;");
    let _ = writeln!(s, "}}");
    s
}

/// Fit per-op latencies/throughputs for `target` on this host from
/// generated microbenchmark chains (add/mul/fma/div/sqrt, scalar and
/// vector; the in-lane shuffle on vector targets, and the cross-lane
/// permute on 256-bit ones, whose latency minus the shuffle's is what the
/// model charges as `cross_lane_latency`).
///
/// # Errors
///
/// [`HwError`] when the compiler probe or any microbenchmark fails —
/// calibration is all-or-nothing so a partial table never masquerades
/// as a full one.
pub fn calibrate(target: Target, cfg: &MeasureConfig) -> Result<Calibration, HwError> {
    let hw = HardwareMeasurer::new(target, cfg)?;
    let mut ops = Vec::new();
    let width = target.max_width();
    for op in ["add", "mul", "fma", "div", "sqrt", "shuf", "xlane"] {
        if op == "fma" && !target.has_fma() || op == "xlane" && width < 4 {
            continue;
        }
        let lane_move = matches!(op, "shuf" | "xlane");
        for vector in [false, true] {
            if vector && width < 2 || lane_move && !vector {
                continue;
            }
            let src = microbench_source(op, vector, width, 200_000);
            let bin = hw.compile(&src)?;
            let out = run_with_deadline(&bin, RUN_DEADLINE)?;
            if !out.status.success() {
                return Err(HwError(format!("microbench {op} exited with {}", out.status)));
            }
            let text = String::from_utf8_lossy(&out.stdout);
            let line = text
                .lines()
                .find(|l| l.starts_with("SLINGEN_CAL "))
                .ok_or_else(|| HwError(format!("microbench {op} output unparseable")))?;
            let mut lat = None;
            let mut thr = None;
            let mut toks = line.split_whitespace().skip(1);
            while let (Some(k), Some(v)) = (toks.next(), toks.next()) {
                match k {
                    "lat" => lat = v.parse::<f64>().ok(),
                    "thr" => thr = v.parse::<f64>().ok(),
                    _ => {}
                }
            }
            let (latency, throughput) = match (lat, thr) {
                (Some(l), Some(t)) if l > 0.0 && t > 0.0 => (l, t),
                _ => return Err(HwError(format!("microbench {op} reported no numbers"))),
            };
            ops.push(OpCost { op, vector, latency, throughput });
        }
    }
    Ok(Calibration { target, ops })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_model_and_keyless() {
        let cfg = MeasureConfig::default();
        assert_eq!(cfg.mode, MeasureMode::Model);
        assert!(!cfg.wants_hardware());
        assert_eq!(cfg.cache_key_suffix(), "");
    }

    #[test]
    fn hardware_config_keys_its_parameters() {
        let cfg = MeasureConfig::hardware();
        assert!(cfg.wants_hardware());
        let key = cfg.cache_key_suffix();
        assert!(key.starts_with("|measure:hw,"), "{key}");
        assert!(key.contains("cc=cc"), "{key}");
    }

    #[test]
    fn hardware_cache_key_suffix_is_pinned() {
        // persisted hardware-mode cache keys embed this text verbatim
        assert_eq!(MeasureConfig::hardware().cache_key_suffix(), "|measure:hw,k3,w20,r9,i30,cc=cc");
    }

    #[test]
    fn bogus_compiler_fails_fast() {
        let cfg = MeasureConfig {
            compiler: Some(PathBuf::from("/nonexistent/slingen-no-such-cc")),
            ..MeasureConfig::hardware()
        };
        let err = HardwareMeasurer::new(Target::Avx2, &cfg).err().expect("must fail");
        assert!(err.0.contains("not runnable"), "{err}");
    }

    #[cfg(unix)]
    #[test]
    fn hung_runs_are_killed_at_the_deadline() {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!("slingen-deadline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("sleeper");
        std::fs::write(&script, "#!/bin/sh\necho started\nexec sleep 30\n").unwrap();
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
        let start = Instant::now();
        let err = run_with_deadline(&script, Duration::from_millis(200)).unwrap_err();
        let waited = start.elapsed();
        assert!(err.0.starts_with("timeout:"), "{err}");
        assert!(waited < Duration::from_secs(10), "killed only after {waited:?}");

        let quick = dir.join("quick");
        std::fs::write(&quick, "#!/bin/sh\necho SLINGEN_CAL lat 1 thr 1\n").unwrap();
        std::fs::set_permissions(&quick, std::fs::Permissions::from_mode(0o755)).unwrap();
        let out = run_with_deadline(&quick, Duration::from_secs(10)).unwrap();
        assert!(out.status.success());
        assert_eq!(String::from_utf8_lossy(&out.stdout), "SLINGEN_CAL lat 1 thr 1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn measure_line_parses() {
        let m = parse_measure_line(
            "noise\nSLINGEN_MEASURE cycles 123.5 ns 37.1 tsc_hz 3.3e9 reps 9\nSLINGEN_CHECK 1\n",
        )
        .unwrap();
        assert_eq!(m.cycles, 123.5);
        assert_eq!(m.ns, 37.1);
        assert_eq!(m.reps, 9);
        assert!(parse_measure_line("SLINGEN_MEASURE cycles x ns 1 reps 1").is_none());
        assert!(parse_measure_line("nothing here").is_none());
    }

    #[test]
    fn checksum_line_is_checked_against_the_vm() {
        let vm = (6.0, 10.0);
        let out = |check: &str| format!("SLINGEN_MEASURE cycles 1 ns 1 reps 1\n{check}");
        assert!(check_checksum(&out("SLINGEN_CHECK 6.0000000000000009\n"), vm).is_ok());
        let err = check_checksum(&out("SLINGEN_CHECK 6.5\n"), vm).unwrap_err();
        assert!(err.0.contains("does not match"), "{err}");
        let err = check_checksum(&out(""), vm).unwrap_err();
        assert!(err.0.contains("no parseable SLINGEN_CHECK"), "{err}");
        assert!(check_checksum(&out("SLINGEN_CHECK nan\n"), vm).is_err());
        assert!(check_checksum(&out("SLINGEN_CHECK -nan\n"), vm).is_err());
        assert!(check_checksum(&out("SLINGEN_CHECK 6\n"), (f64::NAN, 10.0)).is_err());
    }

    #[test]
    fn microbench_sources_are_well_formed() {
        for op in ["add", "mul", "fma", "div", "sqrt", "shuf", "xlane"] {
            for (vector, width) in [(false, 1), (true, 2), (true, 4)] {
                if matches!(op, "shuf" | "xlane") && !vector || op == "xlane" && width < 4 {
                    continue;
                }
                let s = microbench_source(op, vector, width, 100);
                assert!(s.contains("SLINGEN_CAL"), "{op} {vector}");
                assert!(s.contains("bench_lat"), "{op} {vector}");
                if vector {
                    assert!(s.contains("_pd"), "{op} width {width}:\n{s}");
                }
            }
        }
    }
}
