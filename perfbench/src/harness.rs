//! Compile an emitted C timing harness with the host `cc`, run it, and
//! check its `SLINGEN_CHECK` line against the VM.

use slingen::workload;
use slingen_cir::unparse::{to_c_harness, HarnessOpts};
use slingen_cir::{BufKind, Function, FunctionBuilder, Target};
use slingen_ir::Program;
use slingen_lgen::BufferMap;
use slingen_vm::{BufferSet, NullMonitor};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The harness loop shape (the generator's own hardware measurer uses the
/// same defaults).
pub const WARMUP: u32 = 20;
pub const REPS: u32 = 9;
pub const INNER: u32 = 30;

/// A harness binary that does not finish in this long is killed.
const RUN_TIMEOUT: Duration = Duration::from_secs(20);

/// One harness execution.
#[derive(Debug, Clone, Copy)]
pub struct HarnessRun {
    /// Median-of-min TSC cycles per kernel call.
    pub cycles: f64,
    /// The same in nanoseconds.
    pub ns: f64,
    pub tsc_hz: f64,
    /// Sum of the output buffers after the last call.
    pub check: f64,
}

/// ISA flags for a target's intrinsics (as the generator's measurer
/// passes them).
fn target_cflags(target: Target) -> &'static [&'static str] {
    match target {
        Target::Scalar => &[],
        Target::Sse2 => &["-msse2"],
        Target::Avx2 => &["-mavx"],
        Target::Avx2Fma => &["-mavx2", "-mfma"],
    }
}

/// Initial contents of each parameter buffer, in `Function::params`
/// order, from the program's seeded workload.
pub fn param_inits(program: &Program, function: &Function, seed: u64) -> Vec<Vec<f64>> {
    let mut fb = FunctionBuilder::new("probe", function.width);
    let map = BufferMap::build(program, &mut fb);
    let mut bufs = BufferSet::for_function(function);
    for (op, data) in workload::inputs(program, seed) {
        bufs.set(map.buf(op), &data);
    }
    function.params().map(|(id, _)| bufs.get(id).to_vec()).collect()
}

pub fn harness_source(function: &Function, target: Target, inits: &[Vec<f64>]) -> String {
    let opts = HarnessOpts { inits, warmup: WARMUP, reps: REPS, inner: INNER };
    to_c_harness(function, target, &opts)
}

/// The checksum the harness prints, computed by running `function` once
/// in the VM from the same inputs: (sum, sum of magnitudes).
pub fn vm_checksum(function: &Function, inits: &[Vec<f64>]) -> Result<(f64, f64), String> {
    let mut bufs = BufferSet::for_function(function);
    for ((id, _), init) in function.params().zip(inits) {
        bufs.set(id, init);
    }
    slingen_vm::execute(function, &mut bufs, &mut NullMonitor).map_err(|e| e.to_string())?;
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

/// Whether a harness checksum matches the VM's within 1e-9, relative to
/// the sum of the output magnitudes.
pub fn check_matches(harness: f64, (vm, mag): (f64, f64)) -> bool {
    harness.is_finite() && (harness - vm).abs() <= 1e-9 * mag.max(f64::MIN_POSITIVE)
}

/// Compile `source` into `dir/<stem>` with `cc -std=c99 -O2`.
pub fn compile(source: &str, dir: &Path, stem: &str, target: Target) -> Result<PathBuf, String> {
    let src = dir.join(format!("{stem}.c"));
    let bin = dir.join(stem);
    std::fs::write(&src, source).map_err(|e| format!("write {}: {e}", src.display()))?;
    let out = Command::new("cc")
        .args(["-std=c99", "-O2"])
        .args(target_cflags(target))
        .arg("-o")
        .arg(&bin)
        .arg(&src)
        .arg("-lm")
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cc not runnable: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let diag = stderr.lines().find(|l| l.contains("error")).unwrap_or("no diagnostics");
        return Err(format!("cc failed on {stem}: {diag}"));
    }
    Ok(bin)
}

/// Run a compiled harness (killed after a timeout) and parse its two
/// result lines.
pub fn run(bin: &Path) -> Result<HarnessRun, String> {
    let mut child = Command::new(bin)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("{} did not start: {e}", bin.display()))?;
    let deadline = Instant::now() + RUN_TIMEOUT;
    loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(_) => break,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{} timed out", bin.display()));
            }
            None => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    let out = child.wait_with_output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", bin.display(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse(&stdout).ok_or_else(|| format!("{} printed unparseable output", bin.display()))
}

fn parse(stdout: &str) -> Option<HarnessRun> {
    let field = |line: &str, key: &str| -> Option<f64> {
        let mut toks = line.split_whitespace();
        while let Some(t) = toks.next() {
            if t == key {
                return toks.next()?.parse().ok();
            }
        }
        None
    };
    let m = stdout.lines().find(|l| l.starts_with("SLINGEN_MEASURE "))?;
    let c = stdout.lines().find(|l| l.starts_with("SLINGEN_CHECK "))?;
    Some(HarnessRun {
        cycles: field(m, "cycles")?,
        ns: field(m, "ns")?,
        tsc_hz: field(m, "tsc_hz")?,
        check: c.split_whitespace().nth(1)?.parse().ok()?,
    })
}

/// The TSC frequency a harness measures on this host, from a small kernel
/// compiled in `dir` (removed afterwards); `None` without a working `cc`.
pub fn tsc_probe(dir: &Path) -> Option<f64> {
    let p = slingen::apps::potrf(4);
    let g = slingen::generate(&p, &slingen::Options::default()).ok()?;
    let source = harness_source(&g.function, Target::Avx2, &param_inits(&p, &g.function, 1));
    std::fs::create_dir_all(dir).ok()?;
    let r = compile(&source, dir, "tsc_probe", Target::Avx2).and_then(|bin| run(&bin));
    let _ = std::fs::remove_dir_all(dir);
    r.ok().map(|r| r.tsc_hz)
}
