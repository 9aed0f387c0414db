//! Unparsing C-IR into single-source C99 with vector intrinsics.
//!
//! This is SLinGen's final output format: one self-contained C function,
//! specialized for a [`Target`]. Emission is split into per-ISA emitters
//! behind one dispatch ([`to_c_for`]): plain scalar C for ν = 1, the
//! `_mm_*` 128-bit family for ν = 2, and the `_mm256_*` 256-bit family
//! for ν = 4 — with the target's *capabilities* deciding which intrinsic
//! forms are legal (masked loads/stores, immediate blends, fused
//! multiply-add via `fma()` / `_mm_fmadd_pd` / `_mm256_fmadd_pd`).
//!
//! Lane-mapped loads/stores emit the cheapest matching intrinsic the
//! target supports: contiguous full-width maps become
//! `loadu_pd`/`storeu_pd`, contiguous prefixes become masked accesses
//! (when the target has them), and anything else falls back to
//! per-element code — exactly the Loader/Storer specialization the paper
//! describes. General shuffles try `blend_pd` and in-lane `shuffle_pd`
//! patterns before the generic element path, again capability-gated.

use crate::affine::Affine;
use crate::func::{BufKind, CStmt, Function};
use crate::instr::{BinOp, FmaKind, Instr, LaneSel, MemRef, SOperand};
use crate::target::Target;

/// Render `f` for the historical default target ([`Target::Avx2`]).
pub fn to_c(f: &Function) -> String {
    to_c_for(f, Target::Avx2)
}

/// Render `f` as a self-contained C compilation unit for `target`.
///
/// The function's width ν selects the emitter family (scalar / `_mm_*` /
/// `_mm256_*`); the target's capabilities gate masked memory ops, blends,
/// and FMA forms. A `Function` containing [`Instr::SFma`]/[`Instr::VFma`]
/// on a non-FMA target is still rendered (as an unfused mul+add), but the
/// pipeline only produces fused instructions for FMA targets.
///
/// The function's width must be one of [`Target::widths`] — a ν = 4
/// function has no scalar/SSE2 rendering (re-generate at a narrower ν
/// instead); debug builds assert this.
pub fn to_c_for(f: &Function, target: Target) -> String {
    let mut out = String::new();
    emit_unit(f, target, &mut out);
    out
}

/// Digest of the exact bytes [`to_c_for`] would produce, without
/// materializing the string: `(hash, byte_len)`.
///
/// The golden-digest tests pin emitted C with it; hashing the unparse
/// stream directly skips building (and growing) a multi-megabyte
/// `String`. (The tuner dedupes bodies by the cheaper structural
/// [`Function::fingerprint`] instead.) The hash is a function of the byte
/// *stream* alone — the internal word-folding carries partial words
/// across `write_str` boundaries — so it is insensitive to how the
/// emitter happens to chunk its writes, exactly like hashing the
/// materialized string.
pub fn digest_c_for(f: &Function, target: Target) -> (u64, usize) {
    let mut out = StreamDigest::default();
    emit_unit(f, target, &mut out);
    out.finish()
}

/// Digest of the bytes of `s`: `(hash, byte_len)`, the same digest
/// [`digest_c_for`] streams for emitted C. The hardware measurer keys its
/// compiled-harness cache with it.
pub fn digest_str(s: &str) -> (u64, usize) {
    let mut out = StreamDigest::default();
    out.push(s.as_bytes());
    out.finish()
}

/// Configuration for [`to_c_harness`]: per-parameter initial data plus
/// the timing-loop shape.
pub struct HarnessOpts<'a> {
    /// Initial contents for each *parameter* buffer, aligned with the
    /// [`Function::params`] iteration order. Shorter vectors (or a
    /// shorter slice) zero-fill the remainder.
    pub inits: &'a [Vec<f64>],
    /// Untimed warm-up calls before the first sample.
    pub warmup: u32,
    /// Timing repetitions; the harness reports the median over these.
    pub reps: u32,
    /// Calls per repetition; each repetition keeps its minimum.
    pub inner: u32,
}

/// Render `f` plus a standalone wall-clock timing harness (`main`)
/// around it, as one self-contained C99 compilation unit.
///
/// The harness re-initializes every parameter buffer from a pristine
/// copy before each call (so in-place kernels like `potrf` time the
/// same work every iteration), calls the kernel through a `volatile`
/// function pointer (so the compiler can neither inline nor elide it),
/// and times each call with the TSC (serialized with `lfence`; a
/// `clock_gettime` fallback covers non-x86 hosts). The per-call
/// estimate is a median over `reps` repetitions of the minimum over
/// `inner` calls, with the measured back-to-back timer overhead
/// subtracted. The result is printed as one parseable line:
///
/// ```text
/// SLINGEN_MEASURE cycles <f> ns <f> tsc_hz <f> reps <n>
/// SLINGEN_CHECK <checksum of output buffers>
/// ```
pub fn to_c_harness(f: &Function, target: Target, opts: &HarnessOpts<'_>) -> String {
    let mut out = String::new();
    // `clock_gettime`/`CLOCK_MONOTONIC` are POSIX, hidden under a strict
    // `-std=c99`; the feature macro must precede the first libc include,
    // so it goes above the kernel unit, not in the harness section.
    out.push_str("#define _POSIX_C_SOURCE 199309L\n");
    emit_unit(f, target, &mut out);
    emit_harness(f, opts, &mut out);
    out
}

fn emit_harness(f: &Function, opts: &HarnessOpts<'_>, out: &mut String) {
    use std::fmt::Write;
    let params: Vec<_> = f.params().collect();
    let _ = writeln!(out);
    let _ = writeln!(out, "#include <stdio.h>");
    let _ = writeln!(out, "#include <stdlib.h>");
    let _ = writeln!(out, "#include <string.h>");
    let _ = writeln!(out, "#include <time.h>");
    let _ = writeln!(out, "#if defined(__x86_64__) || defined(__i386__)");
    let _ = writeln!(out, "#include <x86intrin.h>");
    let _ = writeln!(out, "#define SLINGEN_TSC 1");
    let _ = writeln!(out, "static unsigned long long slingen_now(void) {{");
    let _ = writeln!(out, "  _mm_lfence();");
    let _ = writeln!(out, "  return __rdtsc();");
    let _ = writeln!(out, "}}");
    let _ = writeln!(out, "#else");
    let _ = writeln!(out, "#define SLINGEN_TSC 0");
    let _ = writeln!(out, "static unsigned long long slingen_now(void) {{");
    let _ = writeln!(out, "  struct timespec ts;");
    let _ = writeln!(out, "  clock_gettime(CLOCK_MONOTONIC, &ts);");
    let _ = writeln!(
        out,
        "  return (unsigned long long)ts.tv_sec * 1000000000ull + (unsigned long long)ts.tv_nsec;"
    );
    let _ = writeln!(out, "}}");
    let _ = writeln!(out, "#endif");
    let _ = writeln!(out);

    // Working buffers plus a pristine copy of each; restore by memcpy
    // before every kernel call. Decimal literals with 17 significant
    // digits round-trip IEEE-754 doubles exactly.
    for (i, (_, b)) in params.iter().enumerate() {
        let len = b.len.max(1);
        let _ = writeln!(out, "static double slingen_buf{i}[{len}];");
        let init = opts.inits.get(i);
        let has_data = init.is_some_and(|v| v.iter().any(|x| *x != 0.0));
        if has_data {
            let vals = init.unwrap();
            let _ = write!(out, "static const double slingen_ref{i}[{len}] = {{");
            for (j, v) in vals.iter().take(len).enumerate() {
                if j % 4 == 0 {
                    let _ = write!(out, "\n  ");
                }
                let _ = write!(out, "{v:.17e},");
            }
            let _ = writeln!(out, "\n}};");
        } else {
            let _ = writeln!(out, "static const double slingen_ref{i}[{len}];");
        }
    }
    let _ = writeln!(out);

    // The typedef mirrors the kernel signature so the volatile pointer
    // call type-checks exactly.
    let _ = write!(out, "typedef void (*slingen_fn_t)(");
    for (i, (_, b)) in params.iter().enumerate() {
        if i > 0 {
            let _ = write!(out, ", ");
        }
        let qual = if b.kind == BufKind::ParamIn { "const " } else { "" };
        let _ = write!(out, "{qual}double* restrict");
    }
    if params.is_empty() {
        let _ = write!(out, "void");
    }
    let _ = writeln!(out, ");");
    let _ = writeln!(out, "static volatile slingen_fn_t slingen_kernel = {};", f.name);
    let _ = writeln!(out);
    let _ = writeln!(out, "static void slingen_restore(void) {{");
    for i in 0..params.len() {
        let _ = writeln!(out, "  memcpy(slingen_buf{i}, slingen_ref{i}, sizeof slingen_buf{i});");
    }
    let _ = writeln!(out, "}}");
    let _ = writeln!(out);
    let _ = writeln!(out, "static int slingen_cmp(const void* a, const void* b) {{");
    let _ = writeln!(out, "  double x = *(const double*)a, y = *(const double*)b;");
    let _ = writeln!(out, "  return (x > y) - (x < y);");
    let _ = writeln!(out, "}}");
    let _ = writeln!(out);

    let args = (0..params.len()).map(|i| format!("slingen_buf{i}")).collect::<Vec<_>>().join(", ");
    let (warmup, reps, inner) = (opts.warmup.max(1), opts.reps.max(1), opts.inner.max(1));
    let _ = writeln!(out, "int main(void) {{");
    // TSC frequency against CLOCK_MONOTONIC over a ~10ms window, so
    // cycle estimates can be reported in nanoseconds too.
    let _ = writeln!(out, "  double tsc_hz = 1e9;");
    let _ = writeln!(out, "#if SLINGEN_TSC");
    let _ = writeln!(out, "  {{");
    let _ = writeln!(out, "    struct timespec a, b;");
    let _ = writeln!(out, "    clock_gettime(CLOCK_MONOTONIC, &a);");
    let _ = writeln!(out, "    unsigned long long t0 = slingen_now();");
    let _ = writeln!(out, "    long long ns = 0;");
    let _ = writeln!(out, "    do {{");
    let _ = writeln!(out, "      clock_gettime(CLOCK_MONOTONIC, &b);");
    let _ =
        writeln!(out, "      ns = (b.tv_sec - a.tv_sec) * 1000000000ll + (b.tv_nsec - a.tv_nsec);");
    let _ = writeln!(out, "    }} while (ns < 10000000ll);");
    let _ = writeln!(out, "    unsigned long long t1 = slingen_now();");
    let _ = writeln!(out, "    if (ns > 0) tsc_hz = (double)(t1 - t0) * 1e9 / (double)ns;");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "#endif");
    // Timer overhead: minimum distance between back-to-back reads.
    let _ = writeln!(out, "  double overhead = 1e300;");
    let _ = writeln!(out, "  for (int i = 0; i < 1000; i++) {{");
    let _ = writeln!(out, "    unsigned long long a = slingen_now(), b = slingen_now();");
    let _ = writeln!(out, "    double d = (double)(b - a);");
    let _ = writeln!(out, "    if (d < overhead) overhead = d;");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "  for (unsigned i = 0; i < {warmup}u; i++) {{");
    let _ = writeln!(out, "    slingen_restore();");
    let _ = writeln!(out, "    slingen_kernel({args});");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "  static double samples[{reps}];");
    let _ = writeln!(out, "  for (unsigned r = 0; r < {reps}u; r++) {{");
    let _ = writeln!(out, "    double best = 1e300;");
    let _ = writeln!(out, "    for (unsigned i = 0; i < {inner}u; i++) {{");
    let _ = writeln!(out, "      slingen_restore();");
    let _ = writeln!(out, "      unsigned long long a = slingen_now();");
    let _ = writeln!(out, "      slingen_kernel({args});");
    let _ = writeln!(out, "      unsigned long long b = slingen_now();");
    let _ = writeln!(out, "      double d = (double)(b - a) - overhead;");
    let _ = writeln!(out, "      if (d < best) best = d;");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "    samples[r] = best > 0.0 ? best : 0.0;");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "  qsort(samples, {reps}, sizeof(double), slingen_cmp);");
    let _ = write!(out, "  double med = ");
    if reps % 2 == 1 {
        let _ = writeln!(out, "samples[{}];", reps / 2);
    } else {
        let _ = writeln!(out, "0.5 * (samples[{}] + samples[{}]);", reps / 2 - 1, reps / 2);
    }
    let _ = writeln!(out, "  double ns = med * 1e9 / tsc_hz;");
    // Checksum over the output buffers keeps the final kernel results
    // observable (and lets the caller spot NaNs in the timed runs).
    let _ = writeln!(out, "  double sink = 0.0;");
    for (i, (_, b)) in params.iter().enumerate() {
        if b.kind != BufKind::ParamIn {
            let len = b.len.max(1);
            let _ =
                writeln!(out, "  for (unsigned i = 0; i < {len}u; i++) sink += slingen_buf{i}[i];");
        }
    }
    let _ = writeln!(
        out,
        "  printf(\"SLINGEN_MEASURE cycles %.17g ns %.17g tsc_hz %.17g reps {reps}\\n\", med, ns, tsc_hz);"
    );
    let _ = writeln!(out, "  printf(\"SLINGEN_CHECK %.17g\\n\", sink);");
    let _ = writeln!(out, "  return 0;");
    let _ = writeln!(out, "}}");
}

/// Streaming byte-stream hash implementing [`std::fmt::Write`].
///
/// FxHash-style word folding, but canonical over the byte stream:
/// partial words are buffered across writes, and the total length is
/// folded in at the end, so `digest(s)` depends only on the bytes of `s`.
#[derive(Default)]
struct StreamDigest {
    state: u64,
    pending: [u8; 8],
    npend: usize,
    len: usize,
}

impl StreamDigest {
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn push(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len();
        if self.npend > 0 {
            let take = bytes.len().min(8 - self.npend);
            self.pending[self.npend..self.npend + take].copy_from_slice(&bytes[..take]);
            self.npend += take;
            bytes = &bytes[take..];
            if self.npend < 8 {
                return;
            }
            let w = u64::from_le_bytes(self.pending);
            self.mix(w);
            self.npend = 0;
        }
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.npend = rest.len();
    }

    fn finish(mut self) -> (u64, usize) {
        if self.npend > 0 {
            self.pending[self.npend..].fill(0);
            let w = u64::from_le_bytes(self.pending);
            self.mix(w);
        }
        self.mix(self.len as u64);
        (self.state, self.len)
    }
}

impl std::fmt::Write for StreamDigest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.push(s.as_bytes());
        Ok(())
    }
}

fn emit_unit<W: std::fmt::Write>(f: &Function, target: Target, out: &mut W) {
    debug_assert!(
        target.supports_width(f.width),
        "function width ν={} is not supported by target `{target}` (widths {:?})",
        f.width,
        target.widths()
    );
    let isa = VecIsa::for_width(target, f.width);
    let _ = writeln!(out, "/* generated by slingen (CGO'18 reproduction) */");
    let _ = writeln!(out, "#include <math.h>");
    if f.width > 1 {
        let _ = writeln!(out, "#include <immintrin.h>");
    }
    let _ = writeln!(out);
    let _ = write!(out, "void {}(", f.name);
    let mut first = true;
    for (_, b) in f.params() {
        if !first {
            let _ = write!(out, ", ");
        }
        first = false;
        let qual = if b.kind == BufKind::ParamIn { "const " } else { "" };
        let _ = write!(out, "{qual}double* restrict {}", c_ident(&b.name));
    }
    let _ = writeln!(out, ") {{");
    for (_, b) in f.locals() {
        let _ = writeln!(out, "  double {}[{}];", c_ident(&b.name), b.len.max(1));
    }
    if f.n_sregs > 0 {
        let names: Vec<String> = (0..f.n_sregs).map(|i| format!("s{i}")).collect();
        for chunk in names.chunks(16) {
            let _ = writeln!(out, "  double {};", chunk.join(", "));
        }
    }
    if f.n_vregs > 0 && f.width > 1 {
        let vt = isa.vtype;
        let names: Vec<String> = (0..f.n_vregs).map(|i| format!("v{i}")).collect();
        for chunk in names.chunks(12) {
            let _ = writeln!(out, "  {vt} {};", chunk.join(", "));
        }
    }
    emit_stmts(f, &isa, &f.body, 1, out);
    let _ = writeln!(out, "}}");
}

/// One vector-ISA emitter: an intrinsic family (`_mm_*` or `_mm256_*`)
/// plus the capability flags of the target it emits for. Scalar functions
/// (ν = 1) never consult it.
struct VecIsa {
    /// Intrinsic prefix: `_mm` (128-bit) or `_mm256` (256-bit).
    prefix: &'static str,
    /// The C vector type.
    vtype: &'static str,
    /// Masked loads/stores (`maskload_pd`/`maskstore_pd`) are legal.
    masked_mem: bool,
    /// Immediate blends (`blend_pd`) are legal.
    blend: bool,
    /// Fused multiply-add (`fmadd_pd`) is legal.
    fma: bool,
}

impl VecIsa {
    /// Dispatch: pick the emitter family for a function width under a
    /// target. ν = 1 uses the scalar paths (the returned family is inert).
    fn for_width(target: Target, width: usize) -> VecIsa {
        let (prefix, vtype) = match width {
            2 => ("_mm", "__m128d"),
            _ => ("_mm256", "__m256d"),
        };
        VecIsa {
            prefix,
            vtype,
            masked_mem: target.has_masked_mem(),
            blend: target.has_blend(),
            fma: target.has_fma(),
        }
    }

    /// `"{prefix}_{op}_pd"`, e.g. `_mm256_loadu_pd`.
    fn op(&self, name: &str) -> String {
        format!("{}_{}_pd", self.prefix, name)
    }

    fn mask_literal(&self, width: usize, active: usize) -> String {
        // AVX maskload masks: sign bit per 64-bit lane.
        let elems: Vec<&str> =
            (0..width).map(|i| if i < active { "-1LL" } else { "0LL" }).collect();
        match width {
            2 => format!("_mm_set_epi64x({}, {})", elems[1], elems[0]),
            _ => {
                format!("_mm256_set_epi64x({}, {}, {}, {})", elems[3], elems[2], elems[1], elems[0])
            }
        }
    }
}

fn c_ident(name: &str) -> String {
    let mut s: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if s.is_empty() || s.chars().next().unwrap().is_ascii_digit() {
        s.insert(0, '_');
    }
    // avoid collisions with the register/loop-variable namespaces
    // (s0.., v0.., i0..) and the emitter's scratch arrays (_t, _ta, _tb)
    let reserved = {
        let mut cs = s.chars();
        match (cs.next(), s.len()) {
            (Some('s' | 'v' | 'i'), n) if n >= 2 && s[1..].bytes().all(|b| b.is_ascii_digit()) => {
                true
            }
            _ => s.starts_with("_t"),
        }
    };
    if reserved {
        s.push_str("_p");
    }
    s
}

fn aff(e: &Affine) -> String {
    e.to_string()
}

fn addr(f: &Function, m: &MemRef, extra: i64) -> String {
    let name = c_ident(&f.buffers[m.buf.0].name);
    let off = m.offset.offset(extra);
    if off.as_constant() == Some(0) {
        name
    } else {
        format!("({name} + {})", aff(&off))
    }
}

fn sop(s: &SOperand) -> String {
    match s {
        SOperand::Reg(r) => r.to_string(),
        SOperand::Imm(v) => fmt_imm(*v),
    }
}

fn fmt_imm(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{:.1}", v)
    } else {
        format!("{v:e}")
    }
}

fn binop_c(op: BinOp, a: &str, b: &str) -> String {
    let sym = match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
    };
    format!("{a} {sym} {b}")
}

fn vop_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
    }
}

/// Whether the lane map is `[Some(0), Some(1), ..]` over the full width.
fn contiguous_full(lanes: &[Option<i64>]) -> bool {
    lanes.iter().enumerate().all(|(i, l)| *l == Some(i as i64))
}

/// Whether the lane map is a contiguous prefix `[Some(0)..Some(k-1), None..]`.
fn contiguous_prefix(lanes: &[Option<i64>]) -> Option<usize> {
    let k = lanes.iter().take_while(|l| l.is_some()).count();
    if k == 0 || k == lanes.len() {
        return None;
    }
    if lanes[..k].iter().enumerate().all(|(i, l)| *l == Some(i as i64))
        && lanes[k..].iter().all(|l| l.is_none())
    {
        Some(k)
    } else {
        None
    }
}

fn emit_instr<W: std::fmt::Write>(f: &Function, isa: &VecIsa, i: &Instr, ind: usize, out: &mut W) {
    let pad = "  ".repeat(ind);
    let w = f.width;
    match i {
        Instr::SLoad { dst, src } => {
            let _ = writeln!(out, "{pad}{dst} = *{};", addr(f, src, 0));
        }
        Instr::SStore { src, dst } => {
            let _ = writeln!(out, "{pad}*{} = {};", addr(f, dst, 0), sop(src));
        }
        Instr::SBin { op, dst, a, b } => {
            let _ = writeln!(out, "{pad}{dst} = {};", binop_c(*op, &sop(a), &sop(b)));
        }
        Instr::SSqrt { dst, a } => {
            let _ = writeln!(out, "{pad}{dst} = sqrt({});", sop(a));
        }
        Instr::SFma { kind, dst, a, b, c } => {
            // C99 math.h fma(): fused, matching the VM's mul_add
            // semantics; the sub forms are sign-flipped operands (exact)
            let (a, b, c) = (sop(a), sop(b), sop(c));
            let expr = match kind {
                FmaKind::MulAdd => format!("fma({a}, {b}, {c})"),
                FmaKind::MulSub => format!("fma({a}, {b}, -({c}))"),
                FmaKind::NegMulAdd => format!("fma(-({a}), {b}, {c})"),
            };
            let _ = writeln!(out, "{pad}{dst} = {expr};");
        }
        Instr::SMov { dst, a } => {
            let _ = writeln!(out, "{pad}{dst} = {};", sop(a));
        }
        Instr::VLoad { dst, base, lanes } => {
            if w == 1 {
                let off = lanes[0].unwrap_or(0);
                let _ = writeln!(out, "{pad}v{} = *{};", dst.0, addr(f, base, off));
            } else if contiguous_full(lanes) {
                let _ = writeln!(out, "{pad}{dst} = {}({});", isa.op("loadu"), addr(f, base, 0));
            } else if let Some(k) = contiguous_prefix(lanes).filter(|_| isa.masked_mem) {
                let _ = writeln!(
                    out,
                    "{pad}{dst} = {}({}, {});",
                    isa.op("maskload"),
                    addr(f, base, 0),
                    isa.mask_literal(w, k)
                );
            } else {
                // general gather: set from highest lane to lowest
                let elems: Vec<String> = (0..w)
                    .rev()
                    .map(|lane| match lanes[lane] {
                        Some(off) => format!("*{}", addr(f, base, off)),
                        None => "0.0".to_string(),
                    })
                    .collect();
                let _ = writeln!(out, "{pad}{dst} = {}({});", isa.op("set"), elems.join(", "));
            }
        }
        Instr::VStore { src, base, lanes } => {
            if w == 1 {
                if let Some(off) = lanes[0] {
                    let _ = writeln!(out, "{pad}*{} = v{};", addr(f, base, off), src.0);
                }
            } else if contiguous_full(lanes) {
                let _ = writeln!(out, "{pad}{}({}, {src});", isa.op("storeu"), addr(f, base, 0));
            } else if let Some(k) = contiguous_prefix(lanes).filter(|_| isa.masked_mem) {
                let _ = writeln!(
                    out,
                    "{pad}{}({}, {}, {src});",
                    isa.op("maskstore"),
                    addr(f, base, 0),
                    isa.mask_literal(w, k)
                );
            } else {
                // general scatter: spill to a small aligned temp, then copy.
                let _ = writeln!(out, "{pad}{{ double _t[{w}]; {}(_t, {src});", isa.op("storeu"));
                for (lane, l) in lanes.iter().enumerate() {
                    if let Some(off) = l {
                        let _ = writeln!(out, "{pad}  *{} = _t[{lane}];", addr(f, base, *off));
                    }
                }
                let _ = writeln!(out, "{pad}}}");
            }
        }
        Instr::VMov { dst, src } => {
            if w == 1 {
                let _ = writeln!(out, "{pad}v{} = v{};", dst.0, src.0);
            } else {
                let _ = writeln!(out, "{pad}{dst} = {src};");
            }
        }
        Instr::VBin { op, dst, a, b } => {
            if w == 1 {
                let _ = writeln!(
                    out,
                    "{pad}v{} = {};",
                    dst.0,
                    binop_c(*op, &format!("v{}", a.0), &format!("v{}", b.0))
                );
            } else {
                let _ = writeln!(out, "{pad}{dst} = {}({a}, {b});", isa.op(vop_name(*op)));
            }
        }
        Instr::VFma { kind, dst, a, b, c } => {
            if w == 1 {
                let expr = match kind {
                    FmaKind::MulAdd => format!("fma(v{}, v{}, v{})", a.0, b.0, c.0),
                    FmaKind::MulSub => format!("fma(v{}, v{}, -v{})", a.0, b.0, c.0),
                    FmaKind::NegMulAdd => format!("fma(-v{}, v{}, v{})", a.0, b.0, c.0),
                };
                let _ = writeln!(out, "{pad}v{} = {expr};", dst.0);
            } else if isa.fma {
                let _ =
                    writeln!(out, "{pad}{dst} = {}({a}, {b}, {c});", isa.op(kind.intrinsic_stem()));
            } else {
                // non-FMA target: legal but unfused (differs by <= 1 ulp)
                let prod = format!("{}({a}, {b})", isa.op("mul"));
                let expr = match kind {
                    FmaKind::MulAdd => format!("{}({prod}, {c})", isa.op("add")),
                    FmaKind::MulSub => format!("{}({prod}, {c})", isa.op("sub")),
                    FmaKind::NegMulAdd => format!("{}({c}, {prod})", isa.op("sub")),
                };
                let _ = writeln!(out, "{pad}{dst} = {expr};");
            }
        }
        Instr::VBroadcast { dst, src } => {
            if w == 1 {
                let _ = writeln!(out, "{pad}v{} = {};", dst.0, sop(src));
            } else {
                let _ = writeln!(out, "{pad}{dst} = {}({});", isa.op("set1"), sop(src));
            }
        }
        Instr::VShuffle { dst, a, b, sel } => {
            emit_shuffle(isa, *dst, *a, *b, sel, w, &pad, out);
        }
        Instr::VBlend { dst, a, b, mask } => {
            if w == 1 {
                let src = if mask[0] { b } else { a };
                let _ = writeln!(out, "{pad}v{} = v{};", dst.0, src.0);
            } else if isa.blend {
                let imm: usize = mask.iter().enumerate().map(|(i, &m)| usize::from(m) << i).sum();
                let _ = writeln!(out, "{pad}{dst} = {}({a}, {b}, {imm});", isa.op("blend"));
            } else {
                // no immediate blend on this target: general element path
                let sel: Vec<LaneSel> = mask
                    .iter()
                    .enumerate()
                    .map(|(i, &m)| if m { LaneSel::B(i) } else { LaneSel::A(i) })
                    .collect();
                emit_shuffle_elements(isa, *dst, *a, *b, &sel, w, &pad, out);
            }
        }
        Instr::VExtract { dst, src, lane } => {
            if w == 1 {
                let _ = writeln!(out, "{pad}{dst} = v{};", src.0);
            } else {
                // portable extract through a spill; compilers turn this into
                // vextractf128/unpck sequences.
                let _ = writeln!(
                    out,
                    "{pad}{{ double _t[{w}]; {}(_t, {src}); {dst} = _t[{lane}]; }}",
                    isa.op("storeu")
                );
            }
        }
        Instr::VReduceAdd { dst, src } => {
            if w == 1 {
                let _ = writeln!(out, "{pad}{dst} = v{};", src.0);
            } else {
                let sum = (0..w).map(|i| format!("_t[{i}]")).collect::<Vec<_>>().join(" + ");
                let _ = writeln!(
                    out,
                    "{pad}{{ double _t[{w}]; {}(_t, {src}); {dst} = {sum}; }}",
                    isa.op("storeu")
                );
            }
        }
        Instr::Call { kernel, bufs, ints } => {
            let mut args: Vec<String> =
                bufs.iter().map(|b| c_ident(&f.buffers[b.0].name)).collect();
            args.extend(ints.iter().map(|v| v.to_string()));
            let _ = writeln!(out, "{pad}{kernel}({});", args.join(", "));
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_shuffle<W: std::fmt::Write>(
    isa: &VecIsa,
    dst: crate::instr::VReg,
    a: crate::instr::VReg,
    b: crate::instr::VReg,
    sel: &[LaneSel],
    w: usize,
    pad: &str,
    out: &mut W,
) {
    if w == 1 {
        let expr = match sel[0] {
            LaneSel::A(_) => format!("v{}", a.0),
            LaneSel::B(_) => format!("v{}", b.0),
            LaneSel::Zero => "0.0".to_string(),
        };
        let _ = writeln!(out, "{pad}v{} = {expr};", dst.0);
        return;
    }
    // Blend pattern: lane i takes lane i of either source.
    let is_blend = sel.iter().enumerate().all(|(i, s)| match s {
        LaneSel::A(j) | LaneSel::B(j) => *j == i,
        LaneSel::Zero => true,
    });
    if isa.blend && is_blend && !sel.iter().any(|s| matches!(s, LaneSel::Zero)) {
        let imm: usize =
            sel.iter().enumerate().map(|(i, s)| usize::from(matches!(s, LaneSel::B(_))) << i).sum();
        let _ = writeln!(out, "{pad}{dst} = {}({a}, {b}, {imm});", isa.op("blend"));
        return;
    }
    emit_shuffle_elements(isa, dst, a, b, sel, w, pad, out);
}

/// General shuffle path: spill both sources, gather elements. Real AVX
/// needs a permute2f128/shuffle_pd pair here; the element path keeps the
/// emitted C portable while the cost model still charges one shuffle
/// issue.
#[allow(clippy::too_many_arguments)]
fn emit_shuffle_elements<W: std::fmt::Write>(
    isa: &VecIsa,
    dst: crate::instr::VReg,
    a: crate::instr::VReg,
    b: crate::instr::VReg,
    sel: &[LaneSel],
    w: usize,
    pad: &str,
    out: &mut W,
) {
    let elems: Vec<String> = (0..w)
        .rev()
        .map(|lane| match sel[lane] {
            LaneSel::A(j) => format!("_ta[{j}]"),
            LaneSel::B(j) => format!("_tb[{j}]"),
            LaneSel::Zero => "0.0".to_string(),
        })
        .collect();
    let st = isa.op("storeu");
    let _ = writeln!(
        out,
        "{pad}{{ double _ta[{w}], _tb[{w}]; {st}(_ta, {a}); {st}(_tb, {b}); {dst} = {}({}); }}",
        isa.op("set"),
        elems.join(", ")
    );
}

fn emit_stmts<W: std::fmt::Write>(
    f: &Function,
    isa: &VecIsa,
    stmts: &[CStmt],
    ind: usize,
    out: &mut W,
) {
    let pad = "  ".repeat(ind);
    for s in stmts {
        match s {
            CStmt::I(i) => emit_instr(f, isa, i, ind, out),
            CStmt::For { var, lo, hi, step, body } => {
                let _ = writeln!(
                    out,
                    "{pad}for (int {var} = {}; {var} < {}; {var} += {step}) {{",
                    aff(lo),
                    aff(hi)
                );
                emit_stmts(f, isa, body, ind + 1, out);
                let _ = writeln!(out, "{pad}}}");
            }
            CStmt::If { cond, then_, else_ } => {
                let _ = writeln!(out, "{pad}if ({} {} {}) {{", cond.lhs, cond.op, cond.rhs);
                emit_stmts(f, isa, then_, ind + 1, out);
                if !else_.is_empty() {
                    let _ = writeln!(out, "{pad}}} else {{");
                    emit_stmts(f, isa, else_, ind + 1, out);
                }
                let _ = writeln!(out, "{pad}}}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{BufKind, FunctionBuilder};
    use crate::instr::BinOp;

    /// `digest_c_for` must equal the digest of the materialized string fed
    /// to the same hash in arbitrary chunkings — i.e. the streaming hash is
    /// canonical over the byte stream, not the emitter's write pattern.
    fn assert_digest_matches(f: &Function, target: Target) {
        let c = to_c_for(f, target);
        let streamed = digest_c_for(f, target);
        for chunk in [1usize, 3, 7, 8, 64, c.len().max(1)] {
            let mut d = StreamDigest::default();
            for piece in c.as_bytes().chunks(chunk) {
                d.push(piece);
            }
            assert_eq!(d.finish(), streamed, "chunk size {chunk}");
        }
        assert_eq!(digest_str(&c), streamed);
        assert_eq!(streamed.1, c.len());
    }

    #[test]
    fn emits_avx_for_width4() {
        let mut b = FunctionBuilder::new("kernel", 4);
        let x = b.buffer("x", 8, BufKind::ParamIn);
        let y = b.buffer("y", 8, BufKind::ParamInOut);
        let vx = b.vload_contig(MemRef::new(x, 0));
        let vy = b.vload_contig(MemRef::new(y, 0));
        let s = b.vbin(BinOp::Add, vx, vy);
        b.vstore_contig(s, MemRef::new(y, 0));
        let c = to_c(&b.finish());
        assert!(c.contains("#include <immintrin.h>"), "{c}");
        assert!(c.contains("void kernel(const double* restrict x, double* restrict y)"), "{c}");
        assert!(c.contains("_mm256_loadu_pd(x)"), "{c}");
        assert!(c.contains("_mm256_add_pd(v0, v1)"), "{c}");
        assert!(c.contains("_mm256_storeu_pd(y, v2)"), "{c}");
    }

    #[test]
    fn digest_str_distinguishes_and_is_stable() {
        let a = digest_str("int main(void) { return 0; }");
        let b = digest_str("int main(void) { return 1; }");
        assert_ne!(a.0, b.0);
        assert_eq!(a, digest_str("int main(void) { return 0; }"));
    }

    #[test]
    fn digest_matches_materialized_string() {
        let mut b = FunctionBuilder::new("kernel", 4);
        let x = b.buffer("x", 8, BufKind::ParamIn);
        let y = b.buffer("y", 8, BufKind::ParamInOut);
        let vx = b.vload_contig(MemRef::new(x, 0));
        let vy = b.vload_contig(MemRef::new(y, 0));
        let s = b.vbin(BinOp::Add, vx, vy);
        b.vstore_contig(s, MemRef::new(y, 0));
        let f = b.finish();
        assert_digest_matches(&f, Target::Avx2);

        let mut b = FunctionBuilder::new("lp", 1);
        let x = b.buffer("x", 16, BufKind::ParamInOut);
        let i = b.begin_for(0, 16, 1);
        let r = b.sload(MemRef::new(x, Affine::var(i)));
        b.sstore(r, MemRef::new(x, Affine::var(i)));
        b.end_for();
        let f = b.finish();
        assert_digest_matches(&f, Target::Scalar);
    }

    #[test]
    fn emits_masked_access_for_prefix_lanes() {
        let mut b = FunctionBuilder::new("edge", 4);
        let x = b.buffer("x", 3, BufKind::ParamInOut);
        let v = b.vload(MemRef::new(x, 0), vec![Some(0), Some(1), Some(2), None]);
        b.vstore(v, MemRef::new(x, 0), vec![Some(0), Some(1), Some(2), None]);
        let c = to_c(&b.finish());
        assert!(c.contains("_mm256_maskload_pd"), "{c}");
        assert!(c.contains("_mm256_maskstore_pd"), "{c}");
    }

    #[test]
    fn emits_blend_for_blend_patterns() {
        let mut b = FunctionBuilder::new("bl", 4);
        let v0 = b.vbroadcast(1.0);
        let v1 = b.vbroadcast(2.0);
        b.vblend(v0, v1, vec![false, true, true, false]);
        let c = to_c(&b.finish());
        assert!(c.contains("_mm256_blend_pd(v0, v1, 6)"), "{c}");
    }

    #[test]
    fn scalar_width_emits_plain_c() {
        let mut b = FunctionBuilder::new("sc", 1);
        let x = b.buffer("x", 2, BufKind::ParamInOut);
        let r = b.sload(MemRef::new(x, 0));
        let q = b.sbin(BinOp::Div, r, 3.0);
        let s = b.ssqrt(q);
        b.sstore(s, MemRef::new(x, 1));
        let c = to_c(&b.finish());
        assert!(!c.contains("immintrin"), "{c}");
        assert!(c.contains("s0 = *x;"), "{c}");
        assert!(c.contains("s1 = s0 / 3.0;"), "{c}");
        assert!(c.contains("s2 = sqrt(s1);"), "{c}");
        assert!(c.contains("*(x + 1) = s2;"), "{c}");
    }

    #[test]
    fn loops_and_ifs_render() {
        let mut b = FunctionBuilder::new("lp", 1);
        let x = b.buffer("x", 16, BufKind::ParamInOut);
        let i = b.begin_for(0, 16, 1);
        let r = b.sload(MemRef::new(x, Affine::var(i)));
        b.sstore(r, MemRef::new(x, Affine::var(i)));
        b.end_for();
        let c = to_c(&b.finish());
        assert!(c.contains("for (int i0 = 0; i0 < 16; i0 += 1) {"), "{c}");
        assert!(c.contains("*(x + i0)"), "{c}");
    }

    #[test]
    fn fma_forms_per_target() {
        use crate::instr::FmaKind;
        let make = |width: usize, kind: FmaKind| {
            let mut b = FunctionBuilder::new("fk", width);
            let y = b.buffer("y", 8, BufKind::ParamInOut);
            if width == 1 {
                let a = b.sload(MemRef::new(y, 0));
                let r = b.sfma(kind, a, 2.0, 3.0);
                b.sstore(r, MemRef::new(y, 1));
            } else {
                let va = b.vload_contig(MemRef::new(y, 0));
                let r = b.vfma(kind, va, va, va);
                b.vstore_contig(r, MemRef::new(y, 0));
            }
            b.finish()
        };
        // scalar fma() regardless of target (C99 math.h)
        let c = to_c_for(&make(1, FmaKind::MulAdd), Target::Avx2Fma);
        assert!(c.contains("s1 = fma(s0, 2.0, 3.0);"), "{c}");
        let c = to_c_for(&make(1, FmaKind::NegMulAdd), Target::Avx2Fma);
        assert!(c.contains("s1 = fma(-(s0), 2.0, 3.0);"), "{c}");
        // 256-bit fused forms on the FMA target
        let c = to_c_for(&make(4, FmaKind::MulAdd), Target::Avx2Fma);
        assert!(c.contains("_mm256_fmadd_pd(v0, v0, v0)"), "{c}");
        let c = to_c_for(&make(4, FmaKind::NegMulAdd), Target::Avx2Fma);
        assert!(c.contains("_mm256_fnmadd_pd(v0, v0, v0)"), "{c}");
        let c = to_c_for(&make(4, FmaKind::MulSub), Target::Avx2Fma);
        assert!(c.contains("_mm256_fmsub_pd(v0, v0, v0)"), "{c}");
        // 128-bit fused form
        let c = to_c_for(&make(2, FmaKind::MulAdd), Target::Avx2Fma);
        assert!(c.contains("_mm_fmadd_pd(v0, v0, v0)"), "{c}");
        // defensive unfused rendering on a non-FMA target
        let c = to_c_for(&make(4, FmaKind::MulAdd), Target::Avx2);
        assert!(c.contains("_mm256_add_pd(_mm256_mul_pd(v0, v0), v0)"), "{c}");
        let c = to_c_for(&make(4, FmaKind::NegMulAdd), Target::Avx2);
        assert!(c.contains("_mm256_sub_pd(v0, _mm256_mul_pd(v0, v0))"), "{c}");
    }

    #[test]
    fn sse2_target_avoids_masked_and_blend_intrinsics() {
        let mut b = FunctionBuilder::new("edge2", 2);
        let x = b.buffer("x", 3, BufKind::ParamInOut);
        let v = b.vload(MemRef::new(x, 0), vec![Some(0), None]);
        let v2 = b.vbroadcast(2.0);
        let bl = b.vblend(v, v2, vec![false, true]);
        b.vstore(bl, MemRef::new(x, 0), vec![Some(0), None]);
        let c = to_c_for(&b.finish(), Target::Sse2);
        assert!(!c.contains("maskload"), "{c}");
        assert!(!c.contains("maskstore"), "{c}");
        assert!(!c.contains("_mm_blend_pd"), "{c}");
        assert!(c.contains("_mm_set_pd"), "{c}");
        // the same function on the AVX2 target uses the 128-bit AVX forms
        let mut b = FunctionBuilder::new("edge2", 2);
        let x = b.buffer("x", 3, BufKind::ParamInOut);
        let v = b.vload(MemRef::new(x, 0), vec![Some(0), None]);
        let v2 = b.vbroadcast(2.0);
        let bl = b.vblend(v, v2, vec![false, true]);
        b.vstore(bl, MemRef::new(x, 0), vec![Some(0), None]);
        let c = to_c_for(&b.finish(), Target::Avx2);
        assert!(c.contains("_mm_maskload_pd"), "{c}");
        assert!(c.contains("_mm_blend_pd"), "{c}");
    }
}
