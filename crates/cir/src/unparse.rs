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
//! describes. A shuffle whose lanes each stay in place becomes one
//! `blend_pd` when the target has immediate blends.
//!
//! Every other lane movement is a one-line call to a `static inline`
//! helper: a shuffle that copies one lane of one register everywhere
//! calls `slg_bc{2,4}(v, l)`, other shuffles (and blends on targets
//! without `blend_pd`) call `slg_sel{2,4}(a, b, l0, ..)`, lane extracts,
//! scattered stores and lane reductions call `slg_lane{2,4}(v, l)`. A
//! unit defines each helper once, ahead of the kernel, and only if it
//! calls it. The helper bodies spill through a stack array and select
//! elements; with constant selectors the compiler inlines them and
//! lowers the selection to permute, unpack and extract instructions, so
//! the kernel body carries no stack round-trip of its own.
//!
//! Registers are named by live range, so a unit declares only `s0..` and
//! `v0..`, up to its peak register pressure. One pre-scan records the
//! buffers the body mentions and each register's range, from its first
//! definition (or the entry, for a read before any definition) to its
//! last read. A top-level `For` or `If` stretches the range of every
//! register it mentions over the whole region, so loop-carried values and
//! values live across a branch keep their name. A forward walk then frees
//! a name at its register's last read and gives each range, as it starts,
//! the smallest free index; within one statement the sources' names are
//! freed before the destination is named, so `s3 = s1 + s2` may read
//! `s0 = s0 + s1`. Every line is written piecewise from these names and a
//! per-buffer identifier table; debug builds replay the body against the
//! names and assert that every read finds its own register.

use crate::affine::Affine;
use crate::func::{BufKind, CStmt, Function};
use crate::instr::{BinOp, FmaKind, Instr, LaneSel, MemRef, SOperand, SReg, VReg};
use crate::target::Target;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write;

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

/// Digest of the C [`to_c_for`] produces: `(hash, byte_len)`, the same
/// value as [`digest_str`] of that string. The golden-digest tests pin
/// emitted C with it. (The tuner dedupes bodies by the cheaper structural
/// [`Function::fingerprint`] instead.)
pub fn digest_c_for(f: &Function, target: Target) -> (u64, usize) {
    digest_str(&to_c_for(f, target))
}

/// Digest of the bytes of `s`: `(hash, byte_len)`. FxHash-style folding
/// of little-endian 8-byte words (the last one zero-padded), then the
/// length. The hardware measurer keys its compiled-harness cache with it.
pub fn digest_str(s: &str) -> (u64, usize) {
    let mix = |state: u64, word: u64| {
        (state.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    };
    let bytes = s.as_bytes();
    let mut words = bytes.chunks_exact(8);
    let mut state = 0;
    for w in &mut words {
        state = mix(state, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        state = mix(state, u64::from_le_bytes(last));
    }
    (mix(state, bytes.len() as u64), bytes.len())
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

fn emit_unit(f: &Function, target: Target, out: &mut String) {
    debug_assert!(
        target.supports_width(f.width),
        "function width ν={} is not supported by target `{target}` (widths {:?})",
        f.width,
        target.widths()
    );
    let isa = VecIsa::for_width(target, f.width);
    let names = Names::of(f);
    let _ = writeln!(out, "/* generated by slingen (CGO'18 reproduction) */");
    let _ = writeln!(out, "#include <math.h>");
    if f.width > 1 {
        let _ = writeln!(out, "#include <immintrin.h>");
    }
    let _ = writeln!(out);
    if f.width > 1 {
        emit_helpers(f, &isa, out);
    }
    let bufs: Vec<String> = f.buffers.iter().map(|b| c_ident(&b.name)).collect();
    let mut o = Lines { out, bufs: &bufs, s: &names.s.name, v: &names.v.name };
    o.t("void ").t(&f.name).t("(");
    for (k, (id, b)) in f.params().enumerate() {
        if k > 0 {
            o.t(", ");
        }
        let qual = if b.kind == BufKind::ParamIn { "const " } else { "" };
        o.t(qual).t("double* restrict ").t(&bufs[id.0]);
    }
    o.t(") {\n");
    // declare only the locals the body uses (Stage 3 leaves dead
    // temporaries, and an unused declaration draws a warning) and one name
    // per register of peak pressure
    for (id, b) in f.locals().filter(|(id, _)| names.bufs[id.0]) {
        o.t("  double ").t(&bufs[id.0]).t("[").int(b.len.max(1) as i64).t("];\n");
    }
    o.decls("double", "s", names.s.count, 16);
    if f.width > 1 {
        o.decls(isa.vtype, "v", names.v.count, 12);
    }
    o.stmts(&isa, f.width, &f.body, 1);
    o.t("}\n");
}

/// Marks an unused register, an unnamed one, or one whose name is free.
const NONE: u32 = u32::MAX;

/// One register file (scalar or vector): each register's live range over
/// the unit's top-level positions, and the name index it is given.
///
/// Position 0 is the entry, each top-level instruction takes one position
/// and each top-level `For`/`If` takes two, one for entering it and one for
/// leaving it; every register the region mentions is live over both.
struct Bank {
    /// Per register: where its range starts (0 for a read before any
    /// definition), or [`NONE`] if the body never mentions it.
    first: Vec<u32>,
    /// Per register: where its range ends; [`NONE`] once its name is free.
    last: Vec<u32>,
    /// Per register: its name index, [`NONE`] until named.
    name: Vec<u32>,
    /// Freed name indices; the smallest is handed out first.
    free: BinaryHeap<Reverse<u32>>,
    /// Names handed out: the unit declares indices `0..count`, its peak
    /// pressure.
    count: u32,
}

impl Bank {
    fn new(n: usize) -> Bank {
        Bank {
            first: vec![NONE; n],
            last: vec![0; n],
            name: vec![NONE; n],
            free: BinaryHeap::new(),
            count: 0,
        }
    }

    /// Pre-scan: `r` is mentioned. If this is its first mention, its range
    /// starts at `start`; it reaches at least `end`.
    fn mention(&mut self, r: usize, start: u32, end: u32) {
        if self.first[r] == NONE {
            self.first[r] = start;
        }
        self.last[r] = self.last[r].max(end);
    }

    /// Name `r` with the smallest free index if its range starts at `pos`.
    fn open(&mut self, r: usize, pos: u32) {
        if self.first[r] == pos && self.name[r] == NONE {
            self.name[r] = match self.free.pop() {
                Some(Reverse(n)) => n,
                None => {
                    self.count += 1;
                    self.count - 1
                }
            };
        }
    }

    /// Free `r`'s name if its range ends at `pos` (once, however often the
    /// instruction reads it).
    fn close(&mut self, r: usize, pos: u32) {
        if self.last[r] == pos {
            self.last[r] = NONE;
            self.free.push(Reverse(self.name[r]));
        }
    }

    /// A top-level instruction at `pos` mentions `r`. [`each_reg`] visits
    /// the reads first, so their names are free before the destination
    /// (the only register whose range can start here) is named.
    fn step(&mut self, r: usize, pos: u32) {
        self.open(r, pos);
        self.close(r, pos);
    }
}

/// Visit `i`'s scalar and vector registers, reads before the write.
fn each_reg(i: &Instr, mut s: impl FnMut(usize, bool), mut v: impl FnMut(usize, bool)) {
    i.for_each_sreg_read(|r| s(r.0, false));
    i.for_each_vreg_read(|r| v(r.0, false));
    if let Some(r) = i.sreg_write() {
        s(r.0, true);
    }
    if let Some(r) = i.vreg_write() {
        v(r.0, true);
    }
}

/// Visit every instruction inside the region `s`.
fn each_instr(s: &CStmt, f: &mut impl FnMut(&Instr)) {
    match s {
        CStmt::I(i) => f(i),
        CStmt::For { body, .. } => body.iter().for_each(|s| each_instr(s, f)),
        CStmt::If { then_, else_, .. } => then_.iter().chain(else_).for_each(|s| each_instr(s, f)),
    }
}

/// The unit's names: which buffers the body mentions, and each register's
/// live-range name.
struct Names {
    bufs: Vec<bool>,
    s: Bank,
    v: Bank,
}

impl Names {
    /// One pre-scan records the mentioned buffers and each register's
    /// range; a forward walk then frees a name at its register's last read
    /// and names each range, as it starts, with the smallest free index.
    /// Inside an instruction the reads' names are freed before the
    /// destination is named, so `s3 = s1 + s2` may become `s0 = s0 + s1`.
    fn of(f: &Function) -> Names {
        let mut n = Names {
            bufs: vec![false; f.buffers.len()],
            s: Bank::new(f.n_sregs),
            v: Bank::new(f.n_vregs),
        };
        let mut pos = 0;
        for st in &f.body {
            if let CStmt::I(i) = st {
                pos += 1;
                n.mention(i, pos, pos);
            } else {
                let (a, b) = (pos + 1, pos + 2);
                pos = b;
                each_instr(st, &mut |i| n.mention(i, a, b));
            }
        }

        let Names { s, v, .. } = &mut n;
        for r in 0..s.first.len() {
            s.open(r, 0);
        }
        for r in 0..v.first.len() {
            v.open(r, 0);
        }
        pos = 0;
        for st in &f.body {
            if let CStmt::I(i) = st {
                pos += 1;
                each_reg(i, |r, _| s.step(r, pos), |r, _| v.step(r, pos));
            } else {
                let (a, b) = (pos + 1, pos + 2);
                pos = b;
                each_instr(st, &mut |i| each_reg(i, |r, _| s.open(r, a), |r, _| v.open(r, a)));
                each_instr(st, &mut |i| each_reg(i, |r, _| s.close(r, b), |r, _| v.close(r, b)));
            }
        }
        #[cfg(debug_assertions)]
        n.check(f);
        n
    }

    /// Pre-scan one instruction: definitions start at `def`, and every
    /// register it mentions is live up to `end`.
    fn mention(&mut self, i: &Instr, def: u32, end: u32) {
        if let Instr::SLoad { src: m, .. }
        | Instr::SStore { dst: m, .. }
        | Instr::VLoad { base: m, .. }
        | Instr::VStore { base: m, .. } = i
        {
            self.bufs[m.buf.0] = true;
        }
        // a read before any definition reserves its name from the entry
        let start = |is_def: bool| if is_def { def } else { 0 };
        let Names { s, v, .. } = self;
        each_reg(i, |r, d| s.mention(r, start(d), end), |r, d| v.mention(r, start(d), end));
    }

    /// Debug backstop: replay the body against the name table (each loop
    /// body twice, both arms of an `If` in turn) and assert that every read
    /// finds its own register under its name.
    #[cfg(debug_assertions)]
    fn check(&self, f: &Function) {
        fn replay(n: &Names, stmts: &[CStmt], hs: &mut [u32], hv: &mut [u32]) {
            for st in stmts {
                match st {
                    CStmt::I(i) => {
                        let check = |bank: &Bank, held: &[u32], r: usize, kind: char| {
                            assert_eq!(
                                held[bank.name[r] as usize], r as u32,
                                "{kind}{r} read under {kind}{} after another register took it",
                                bank.name[r]
                            );
                        };
                        i.for_each_sreg_read(|r| check(&n.s, hs, r.0, 's'));
                        i.for_each_vreg_read(|r| check(&n.v, hv, r.0, 'v'));
                        if let Some(r) = i.sreg_write() {
                            hs[n.s.name[r.0] as usize] = r.0 as u32;
                        }
                        if let Some(r) = i.vreg_write() {
                            hv[n.v.name[r.0] as usize] = r.0 as u32;
                        }
                    }
                    CStmt::For { body, .. } => {
                        replay(n, body, hs, hv);
                        replay(n, body, hs, hv);
                    }
                    CStmt::If { then_, else_, .. } => {
                        replay(n, then_, hs, hv);
                        replay(n, else_, hs, hv);
                    }
                }
            }
        }
        let entry = |bank: &Bank| {
            let mut held = vec![NONE; bank.count as usize];
            for (r, _) in bank.first.iter().enumerate().filter(|(_, &first)| first == 0) {
                held[bank.name[r] as usize] = r as u32;
            }
            held
        };
        let (mut hs, mut hv) = (entry(&self.s), entry(&self.v));
        replay(self, &f.body, &mut hs, &mut hv);
    }
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
}

/// Prefix of the unit's lane helpers; [`c_ident`] keeps operand names out
/// of it.
const HELPER_PREFIX: &str = "slg_";

/// A lane helper a vector instruction is emitted as a call to.
enum Helper {
    /// `slg_sel{w}(a, b, l0, ..)`: lane `i` of the result is element
    /// `l_i` of `a ++ b ++ [0.0]` (see [`sel_index`]).
    Sel,
    /// `slg_bc{w}(v, l)`: lane `l` of register `v` in every lane.
    Bc(VReg, usize),
    /// `slg_lane{w}(v, l)`: lane `l` of `v` as a `double`.
    Lane,
}

/// The helper `i` calls, if any. The shuffle emitter takes its decision
/// from here and the others take the same decisions (through
/// [`blend_imm`] and [`mem_form`]), so a unit defines exactly the helpers
/// its body calls.
fn helper_for(isa: &VecIsa, i: &Instr) -> Option<Helper> {
    match i {
        Instr::VShuffle { sel, .. } if blend_imm(isa, sel).is_some() => None,
        Instr::VShuffle { a, b, sel, .. } => {
            Some(broadcast_lane(*a, *b, sel).map_or(Helper::Sel, |(v, l)| Helper::Bc(v, l)))
        }
        Instr::VBlend { .. } if !isa.blend => Some(Helper::Sel),
        Instr::VStore { lanes, .. } if mem_form(isa, lanes) == MemForm::Elements => {
            Some(Helper::Lane)
        }
        Instr::VExtract { .. } | Instr::VReduceAdd { .. } => Some(Helper::Lane),
        _ => None,
    }
}

/// Define the lane helpers the body of `f` calls, each once. Their
/// bodies are the portable spill-and-select code; inlined with constant
/// selectors, the compiler lowers them to register shuffles.
fn emit_helpers(f: &Function, isa: &VecIsa, out: &mut String) {
    let (mut sel, mut bc, mut lane) = (false, false, false);
    f.for_each_instr(&mut |i| match helper_for(isa, i) {
        Some(Helper::Sel) => sel = true,
        Some(Helper::Bc(..)) => bc = true,
        Some(Helper::Lane) => lane = true,
        None => {}
    });
    let (w, vt, p) = (f.width, isa.vtype, isa.prefix);
    let st = format!("{p}_storeu_pd");
    if sel {
        let params: Vec<String> = (0..w).map(|l| format!("int l{l}")).collect();
        let picks: Vec<String> = (0..w).rev().map(|l| format!("t[l{l}]")).collect();
        let _ = writeln!(
            out,
            "static inline {vt} {HELPER_PREFIX}sel{w}({vt} a, {vt} b, {}) {{",
            params.join(", ")
        );
        let _ = writeln!(out, "  double t[{}];", 2 * w + 1);
        let _ = writeln!(out, "  {st}(t, a);");
        let _ = writeln!(out, "  {st}(t + {w}, b);");
        let _ = writeln!(out, "  t[{}] = 0.0;", 2 * w);
        let _ = writeln!(out, "  return {p}_set_pd({});", picks.join(", "));
        let _ = writeln!(out, "}}");
    }
    if bc {
        let picks = vec!["t[l]"; w].join(", ");
        let _ = writeln!(out, "static inline {vt} {HELPER_PREFIX}bc{w}({vt} v, int l) {{");
        let _ = writeln!(out, "  double t[{w}];");
        let _ = writeln!(out, "  {st}(t, v);");
        let _ = writeln!(out, "  return {p}_set_pd({picks});");
        let _ = writeln!(out, "}}");
    }
    if lane {
        let _ = writeln!(out, "static inline double {HELPER_PREFIX}lane{w}({vt} v, int l) {{");
        let _ = writeln!(out, "  double t[{w}];");
        let _ = writeln!(out, "  {st}(t, v);");
        let _ = writeln!(out, "  return t[l];");
        let _ = writeln!(out, "}}");
    }
    if sel || bc || lane {
        let _ = writeln!(out);
    }
}

/// The `slg_sel` selector of one lane at width `w`: `a[j]` is `j`, `b[j]`
/// is `w + j`, and zero is `2w`.
fn sel_index(s: LaneSel, w: usize) -> usize {
    match s {
        LaneSel::A(j) => j,
        LaneSel::B(j) => w + j,
        LaneSel::Zero => 2 * w,
    }
}

/// The `blend_pd` immediate of a shuffle in which every lane stays in
/// place (lane `i` takes lane `i` of `a` or `b`), on a target with
/// immediate blends.
fn blend_imm(isa: &VecIsa, sel: &[LaneSel]) -> Option<usize> {
    if !isa.blend {
        return None;
    }
    sel.iter().enumerate().try_fold(0, |imm, (i, s)| match *s {
        LaneSel::A(j) if j == i => Some(imm),
        LaneSel::B(j) if j == i => Some(imm | 1 << i),
        _ => None,
    })
}

/// The source register and lane of a shuffle that copies one lane of one
/// register into every lane (emitted as `slg_bc`).
fn broadcast_lane(a: VReg, b: VReg, sel: &[LaneSel]) -> Option<(VReg, usize)> {
    let src = match sel[0] {
        LaneSel::A(j) => (a, j),
        LaneSel::B(j) => (b, j),
        LaneSel::Zero => return None,
    };
    sel.iter().all(|&s| s == sel[0]).then_some(src)
}

/// How a lane-mapped load or store is emitted on the target.
#[derive(PartialEq, Eq)]
enum MemForm {
    /// `loadu_pd`/`storeu_pd`: the full-width contiguous map.
    Full,
    /// `maskload_pd`/`maskstore_pd` over the first `k` lanes.
    Masked(usize),
    /// One element at a time.
    Elements,
}

fn mem_form(isa: &VecIsa, lanes: &[Option<i64>]) -> MemForm {
    if contiguous_full(lanes) {
        MemForm::Full
    } else if let Some(k) = contiguous_prefix(lanes).filter(|_| isa.masked_mem) {
        MemForm::Masked(k)
    } else {
        MemForm::Elements
    }
}

fn c_ident(name: &str) -> String {
    let mut s: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if s.is_empty() || s.chars().next().unwrap().is_ascii_digit() {
        s.insert(0, '_');
    }
    // avoid collisions with the register/loop-variable namespaces
    // (s0.., v0.., i0..) and the unit's lane helpers (slg_*)
    let reserved = match s.as_bytes() {
        [b's' | b'v' | b'i', digits @ ..]
            if !digits.is_empty() && digits.iter().all(u8::is_ascii_digit) =>
        {
            true
        }
        _ => s.starts_with(HELPER_PREFIX),
    };
    if reserved {
        s.push_str("_p");
    }
    s
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

/// The C operator of `op`, spaced.
fn binop_c(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => " + ",
        BinOp::Sub => " - ",
        BinOp::Mul => " * ",
        BinOp::Div => " / ",
    }
}

/// Writes the kernel body piecewise: register names come from the name
/// tables and buffer names from the identifier table, so no line builds a
/// `String`.
struct Lines<'a> {
    out: &'a mut String,
    /// C identifier per buffer.
    bufs: &'a [String],
    /// Name index per scalar register.
    s: &'a [u32],
    /// Name index per vector register.
    v: &'a [u32],
}

/// Indentation for up to 16 levels; deeper nests repeat it.
const PAD: &str = "                                ";

impl Lines<'_> {
    /// `s` as is.
    fn t(&mut self, s: &str) -> &mut Self {
        self.out.push_str(s);
        self
    }

    /// `prefix` followed by the decimal digits of `n`, in one write.
    fn num(&mut self, prefix: &str, n: u64) -> &mut Self {
        let mut buf = [0u8; 32];
        let mut at = buf.len();
        let mut m = n;
        loop {
            at -= 1;
            buf[at] = b'0' + (m % 10) as u8;
            m /= 10;
            if m == 0 {
                break;
            }
        }
        if prefix.len() <= at {
            at -= prefix.len();
            buf[at..at + prefix.len()].copy_from_slice(prefix.as_bytes());
        } else {
            self.t(prefix);
        }
        self.t(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
    }

    fn int(&mut self, n: i64) -> &mut Self {
        self.num(if n < 0 { "-" } else { "" }, n.unsigned_abs())
    }

    /// The live-range name of `r`.
    fn s(&mut self, r: SReg) -> &mut Self {
        self.num("s", u64::from(self.s[r.0]))
    }

    /// The live-range name of `r`.
    fn v(&mut self, r: VReg) -> &mut Self {
        self.num("v", u64::from(self.v[r.0]))
    }

    /// A register or an immediate.
    fn op(&mut self, o: &SOperand) -> &mut Self {
        match o {
            SOperand::Reg(r) => self.s(*r),
            SOperand::Imm(v) => {
                let _ = if *v == v.trunc() && v.abs() < 1e15 {
                    write!(self.out, "{v:.1}")
                } else {
                    write!(self.out, "{v:e}")
                };
                self
            }
        }
    }

    /// A lane operand of a pack: its scalar, or 0.0.
    fn lane(&mut self, o: &Option<SOperand>) -> &mut Self {
        match o {
            Some(o) => self.op(o),
            None => self.t("0.0"),
        }
    }

    fn pad(&mut self, ind: usize) -> &mut Self {
        let mut n = 2 * ind;
        while n > PAD.len() {
            self.t(PAD);
            n -= PAD.len();
        }
        self.t(&PAD[..n])
    }

    /// `e + extra`, as [`Affine`]'s `Display` prints it.
    fn aff(&mut self, e: &Affine, extra: i64) -> &mut Self {
        let c = e.constant_part() + extra;
        let mut wrote = false;
        for (var, k) in e.terms() {
            if wrote {
                self.t(if k >= 0 { " + " } else { " - " });
            } else if k < 0 {
                self.t("-");
            }
            if k.abs() != 1 {
                self.int(k.abs()).t("*");
            }
            self.num("i", var.0 as u64);
            wrote = true;
        }
        if !wrote {
            self.int(c)
        } else if c > 0 {
            self.t(" + ").int(c)
        } else if c < 0 {
            self.t(" - ").int(-c)
        } else {
            self
        }
    }

    /// The address of `m` displaced by `extra` elements: the buffer, or
    /// `(buffer + offset)`.
    fn at(&mut self, m: &MemRef, extra: i64) -> &mut Self {
        let bufs = self.bufs;
        if m.offset.as_constant().is_some_and(|c| c + extra == 0) {
            return self.t(&bufs[m.buf.0]);
        }
        self.t("(").t(&bufs[m.buf.0]).t(" + ").aff(&m.offset, extra).t(")")
    }

    /// The intrinsic `{prefix}_{name}_pd`, e.g. `_mm256_loadu_pd`.
    fn intr(&mut self, isa: &VecIsa, name: &str) -> &mut Self {
        self.t(isa.prefix).t("_").t(name).t("_pd")
    }

    /// A call to the lane helper `slg_{name}{w}`.
    fn helper(&mut self, name: &str, w: usize) -> &mut Self {
        self.t(HELPER_PREFIX).t(name).num("", w as u64)
    }

    /// The masked-access mask of the first `k` of `w` lanes (sign bit per
    /// 64-bit lane), highest lane first.
    fn mask(&mut self, w: usize, k: usize) -> &mut Self {
        let (call, lanes) = if w == 2 { ("_mm_set_epi64x(", 2) } else { ("_mm256_set_epi64x(", 4) };
        self.t(call);
        for lane in (0..lanes).rev() {
            self.t(if lane < k { "-1LL" } else { "0LL" }).t(if lane > 0 { ", " } else { ")" });
        }
        self
    }

    /// `count` register names `{prefix}0..`, declared `per` to a line.
    fn decls(&mut self, ty: &str, prefix: &str, count: u32, per: u32) {
        for k in 0..count {
            if k % per == 0 {
                self.t("  ").t(ty).t(" ");
            } else {
                self.t(", ");
            }
            self.num(prefix, u64::from(k));
            if k % per == per - 1 || k + 1 == count {
                self.t(";\n");
            }
        }
    }

    fn stmts(&mut self, isa: &VecIsa, w: usize, stmts: &[CStmt], ind: usize) {
        for s in stmts {
            match s {
                CStmt::I(i) => self.instr(isa, w, i, ind),
                CStmt::For { var, lo, hi, step, body } => {
                    let var = var.0 as u64;
                    self.pad(ind).num("for (int i", var).t(" = ").aff(lo, 0);
                    self.num("; i", var).t(" < ").aff(hi, 0);
                    self.num("; i", var).t(" += ").int(*step).t(") {\n");
                    self.stmts(isa, w, body, ind + 1);
                    self.pad(ind).t("}\n");
                }
                CStmt::If { cond, then_, else_ } => {
                    self.pad(ind).t("if (").aff(&cond.lhs, 0).t(" ");
                    let _ = write!(self.out, "{}", cond.op);
                    self.t(" ").aff(&cond.rhs, 0).t(") {\n");
                    self.stmts(isa, w, then_, ind + 1);
                    if !else_.is_empty() {
                        self.pad(ind).t("} else {\n");
                        self.stmts(isa, w, else_, ind + 1);
                    }
                    self.pad(ind).t("}\n");
                }
            }
        }
    }

    fn instr(&mut self, isa: &VecIsa, w: usize, i: &Instr, ind: usize) {
        if let Instr::VStore { lanes, .. } = i {
            if w == 1 && lanes[0].is_none() {
                // nothing stored: no statement
                return;
            }
        }
        self.pad(ind);
        match i {
            Instr::SLoad { dst, src } => {
                self.s(*dst).t(" = *").at(src, 0);
            }
            Instr::SStore { src, dst } => {
                self.t("*").at(dst, 0).t(" = ").op(src);
            }
            Instr::SBin { op, dst, a, b } => {
                self.s(*dst).t(" = ").op(a).t(binop_c(*op)).op(b);
            }
            Instr::SSqrt { dst, a } => {
                self.s(*dst).t(" = sqrt(").op(a).t(")");
            }
            Instr::SFma { kind, dst, a, b, c } => {
                // C99 math.h fma(): fused, matching the VM's mul_add
                // semantics; the sub forms are sign-flipped operands (exact)
                self.s(*dst).t(" = fma(");
                match kind {
                    FmaKind::MulAdd => self.op(a).t(", ").op(b).t(", ").op(c),
                    FmaKind::MulSub => self.op(a).t(", ").op(b).t(", -(").op(c).t(")"),
                    FmaKind::NegMulAdd => self.t("-(").op(a).t("), ").op(b).t(", ").op(c),
                }
                .t(")");
            }
            Instr::SMov { dst, a } => {
                self.s(*dst).t(" = ").op(a);
            }
            Instr::VLoad { dst, base, lanes } => {
                self.v(*dst).t(" = ");
                if w == 1 {
                    self.t("*").at(base, lanes[0].unwrap_or(0));
                } else {
                    match mem_form(isa, lanes) {
                        MemForm::Full => {
                            self.intr(isa, "loadu").t("(").at(base, 0).t(")");
                        }
                        MemForm::Masked(k) => {
                            self.intr(isa, "maskload").t("(").at(base, 0).t(", ").mask(w, k).t(")");
                        }
                        MemForm::Elements => {
                            // general gather: set from highest lane to lowest
                            self.intr(isa, "set").t("(");
                            for lane in (0..w).rev() {
                                match lanes[lane] {
                                    Some(off) => self.t("*").at(base, off),
                                    None => self.t("0.0"),
                                };
                                self.t(if lane > 0 { ", " } else { ")" });
                            }
                        }
                    }
                }
            }
            Instr::VStore { src, base, lanes } => {
                if w == 1 {
                    self.t("*").at(base, lanes[0].unwrap_or(0)).t(" = ").v(*src);
                } else {
                    match mem_form(isa, lanes) {
                        MemForm::Full => {
                            self.intr(isa, "storeu").t("(").at(base, 0).t(", ").v(*src).t(")");
                        }
                        MemForm::Masked(k) => {
                            self.intr(isa, "maskstore").t("(").at(base, 0).t(", ").mask(w, k);
                            self.t(", ").v(*src).t(")");
                        }
                        MemForm::Elements => {
                            // general scatter: one lane extract per mapped
                            // lane, each its own statement
                            let mut sep = "";
                            for (lane, l) in lanes.iter().enumerate() {
                                if let Some(off) = l {
                                    self.t(sep).t("*").at(base, *off).t(" = ").helper("lane", w);
                                    self.t("(").v(*src).num(", ", lane as u64).t(");");
                                    sep = " ";
                                }
                            }
                            self.t("\n");
                            return;
                        }
                    }
                }
            }
            Instr::VMov { dst, src } => {
                self.v(*dst).t(" = ").v(*src);
            }
            Instr::VBin { op, dst, a, b } => {
                self.v(*dst).t(" = ");
                if w == 1 {
                    self.v(*a).t(binop_c(*op)).v(*b);
                } else {
                    self.intr(isa, vop_name(*op)).t("(").v(*a).t(", ").v(*b).t(")");
                }
            }
            Instr::VFma { kind, dst, a, b, c } => {
                self.v(*dst).t(" = ");
                if w == 1 {
                    match kind {
                        FmaKind::MulAdd => self.t("fma(").v(*a).t(", ").v(*b).t(", ").v(*c),
                        FmaKind::MulSub => self.t("fma(").v(*a).t(", ").v(*b).t(", -").v(*c),
                        FmaKind::NegMulAdd => self.t("fma(-").v(*a).t(", ").v(*b).t(", ").v(*c),
                    }
                    .t(")");
                } else if isa.fma {
                    self.intr(isa, kind.intrinsic_stem()).t("(").v(*a).t(", ").v(*b);
                    self.t(", ").v(*c).t(")");
                } else {
                    // non-FMA target: legal but unfused (differs by <= 1 ulp)
                    let outer = if *kind == FmaKind::MulAdd { "add" } else { "sub" };
                    self.intr(isa, outer).t("(");
                    if *kind == FmaKind::NegMulAdd {
                        self.v(*c).t(", ");
                    }
                    self.intr(isa, "mul").t("(").v(*a).t(", ").v(*b).t(")");
                    if *kind != FmaKind::NegMulAdd {
                        self.t(", ").v(*c);
                    }
                    self.t(")");
                }
            }
            Instr::VBroadcast { dst, src } => {
                self.v(*dst).t(" = ");
                if w == 1 {
                    self.op(src);
                } else {
                    self.intr(isa, "set1").t("(").op(src).t(")");
                }
            }
            Instr::VShuffle { dst, a, b, sel } => {
                self.v(*dst).t(" = ");
                if w == 1 {
                    match sel[0] {
                        LaneSel::A(_) => self.v(*a),
                        LaneSel::B(_) => self.v(*b),
                        LaneSel::Zero => self.t("0.0"),
                    };
                } else {
                    match helper_for(isa, i) {
                        Some(Helper::Bc(src, lane)) => {
                            self.helper("bc", w).t("(").v(src).num(", ", lane as u64).t(")");
                        }
                        Some(_) => {
                            self.select(w, *a, *b, sel.iter().map(|&s| sel_index(s, w)));
                        }
                        None => {
                            let imm =
                                blend_imm(isa, sel).expect("a shuffle without a helper is a blend");
                            self.intr(isa, "blend").t("(").v(*a).t(", ").v(*b);
                            self.num(", ", imm as u64).t(")");
                        }
                    }
                }
            }
            Instr::VPack { dst, elems } => {
                self.v(*dst).t(" = ");
                if w == 1 {
                    self.lane(&elems[0]);
                } else {
                    // `set_pd` takes the highest lane first
                    self.intr(isa, "set").t("(");
                    for (k, e) in elems.iter().rev().enumerate() {
                        self.t(if k > 0 { ", " } else { "" }).lane(e);
                    }
                    self.t(")");
                }
            }
            Instr::VBlend { dst, a, b, mask } => {
                self.v(*dst).t(" = ");
                if w == 1 {
                    self.v(if mask[0] { *b } else { *a });
                } else if isa.blend {
                    let imm: usize =
                        mask.iter().enumerate().map(|(i, &m)| usize::from(m) << i).sum();
                    self.intr(isa, "blend").t("(").v(*a).t(", ").v(*b).num(", ", imm as u64).t(")");
                } else {
                    // no immediate blend on this target: the general shuffle
                    let lanes = mask.iter().enumerate().map(|(l, &m)| if m { w + l } else { l });
                    self.select(w, *a, *b, lanes);
                }
            }
            Instr::VExtract { dst, src, lane } => {
                self.s(*dst).t(" = ");
                if w == 1 {
                    self.v(*src);
                } else {
                    self.helper("lane", w).t("(").v(*src).num(", ", *lane as u64).t(")");
                }
            }
            Instr::VReduceAdd { dst, src } => {
                self.s(*dst).t(" = ");
                if w == 1 {
                    self.v(*src);
                } else {
                    // lanes summed in lane order: ((l0 + l1) + l2) + l3
                    for l in 0..w {
                        self.t(if l > 0 { " + " } else { "" }).helper("lane", w).t("(").v(*src);
                        self.num(", ", l as u64).t(")");
                    }
                }
            }
        }
        self.t(";\n");
    }

    /// General shuffle: one `slg_sel` call with a constant selector per
    /// lane (see [`sel_index`]). The cost model charges it one shuffle
    /// issue; the compiler picks the permute/unpack sequence when it
    /// inlines the helper.
    fn select(&mut self, w: usize, a: VReg, b: VReg, lanes: impl Iterator<Item = usize>) {
        self.helper("sel", w).t("(").v(a).t(", ").v(b);
        for l in lanes {
            self.num(", ", l as u64);
        }
        self.t(")");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::{CmpOp, Cond};
    use crate::func::{BufKind, FunctionBuilder};
    use crate::instr::{BinOp, SReg};

    /// `digest_c_for` is the digest of the emitted string.
    fn assert_digest_matches(f: &Function, target: Target) {
        let c = to_c_for(f, target);
        assert_eq!(digest_c_for(f, target), digest_str(&c));
        assert_eq!(digest_c_for(f, target).1, c.len());
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
        assert!(c.contains("v0 = _mm256_add_pd(v0, v1);"), "{c}");
        assert!(c.contains("_mm256_storeu_pd(y, v0)"), "{c}");
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
    fn one_lane_broadcasts_call_the_bc_helper() {
        for (w, sel, call) in [
            (4, vec![LaneSel::B(2); 4], "v0 = slg_bc4(v1, 2);"),
            (2, vec![LaneSel::A(1); 2], "v0 = slg_bc2(v0, 1);"),
        ] {
            let mut b = FunctionBuilder::new("bc", w);
            let x = b.buffer("x", 2 * w, BufKind::ParamInOut);
            let v0 = b.vload_contig(MemRef::new(x, 0));
            let v1 = b.vload_contig(MemRef::new(x, w as i64));
            let v2 = b.vshuffle(v0, v1, sel);
            b.vstore_contig(v2, MemRef::new(x, 0));
            let c = to_c(&b.finish());
            assert!(c.contains(call), "{c}");
            assert!(
                c.contains(&format!(
                    "static inline {} slg_bc{w}(",
                    if w == 2 { "__m128d" } else { "__m256d" }
                )),
                "{c}"
            );
            assert!(!c.contains("slg_sel"), "{c}");
        }
    }

    #[test]
    fn lane_movements_call_helpers_defined_once_and_only_when_used() {
        let mut b = FunctionBuilder::new("mv", 4);
        let x = b.buffer("x", 8, BufKind::ParamInOut);
        let v0 = b.vload_contig(MemRef::new(x, 0));
        let v1 =
            b.vshuffle(v0, v0, vec![LaneSel::A(3), LaneSel::B(0), LaneSel::Zero, LaneSel::A(1)]);
        let v2 =
            b.vshuffle(v1, v0, vec![LaneSel::B(1), LaneSel::A(0), LaneSel::A(2), LaneSel::A(3)]);
        b.vstore_contig(v2, MemRef::new(x, 0));
        let only_sel = b.finish();
        let c = to_c(&only_sel);
        assert!(c.contains("v1 = slg_sel4(v0, v0, 3, 4, 8, 1);"), "{c}");
        assert!(c.contains("v0 = slg_sel4(v1, v0, 5, 0, 2, 3);"), "{c}");
        assert_eq!(c.matches("static inline").count(), 1, "{c}");
        assert!(c.contains("static inline __m256d slg_sel4("), "{c}");
        assert!(!c.contains("slg_lane4"), "{c}");

        let mut b = FunctionBuilder::new("mv", 4);
        let x = b.buffer("x", 8, BufKind::ParamInOut);
        let v0 = b.vload_contig(MemRef::new(x, 0));
        let s = b.vextract(v0, 2);
        b.sstore(s, MemRef::new(x, 4));
        let r = b.vreduce_add(v0);
        b.sstore(r, MemRef::new(x, 5));
        b.vstore(v0, MemRef::new(x, 4), vec![Some(2), None, Some(0), None]);
        let c = to_c(&b.finish());
        assert!(c.contains("s0 = slg_lane4(v0, 2);"), "{c}");
        assert!(
            c.contains(
                "s0 = slg_lane4(v0, 0) + slg_lane4(v0, 1) + slg_lane4(v0, 2) + slg_lane4(v0, 3);"
            ),
            "{c}"
        );
        assert!(c.contains("*(x + 6) = slg_lane4(v0, 0); *(x + 4) = slg_lane4(v0, 2);"), "{c}");
        assert_eq!(c.matches("static inline").count(), 1, "{c}");
        assert!(c.contains("static inline double slg_lane4(__m256d v, int l) {"), "{c}");

        // no stack round-trip is left in the kernel body
        for c in [to_c(&only_sel), c] {
            let body = &c[c.find("void mv(").unwrap()..];
            assert!(!body.contains("double t[") && !body.contains("storeu_pd(t"), "{c}");
        }

        // only contiguous and blend moves: no helper at all
        let mut b = FunctionBuilder::new("mv", 4);
        let x = b.buffer("x", 8, BufKind::ParamInOut);
        let v0 = b.vload_contig(MemRef::new(x, 0));
        let v1 =
            b.vshuffle(v0, v0, vec![LaneSel::A(0), LaneSel::B(1), LaneSel::A(2), LaneSel::B(3)]);
        b.vstore_contig(v1, MemRef::new(x, 0));
        let c = to_c(&b.finish());
        assert!(c.contains("_mm256_blend_pd(v0, v0, 10)"), "{c}");
        assert!(!c.contains("slg_"), "{c}");
    }

    #[test]
    fn sse2_blends_go_through_the_select_helper() {
        let mut b = FunctionBuilder::new("bl2", 2);
        let x = b.buffer("x", 4, BufKind::ParamInOut);
        let v0 = b.vload_contig(MemRef::new(x, 0));
        let v1 = b.vload_contig(MemRef::new(x, 2));
        let v2 = b.vblend(v0, v1, vec![true, false]);
        b.vstore_contig(v2, MemRef::new(x, 0));
        let c = to_c_for(&b.finish(), Target::Sse2);
        assert!(c.contains("static inline __m128d slg_sel2(__m128d a, __m128d b, int l0, int l1)"));
        assert!(c.contains("return _mm_set_pd(t[l1], t[l0]);"), "{c}");
        assert!(c.contains("v0 = slg_sel2(v0, v1, 2, 1);"), "{c}");
    }

    #[test]
    fn c_ident_keeps_operands_out_of_reserved_names() {
        // registers, loop variables and the lane helpers are renamed
        for (name, want) in [
            ("s12", "s12_p"),
            ("v0", "v0_p"),
            ("i3", "i3_p"),
            ("slg_sel4", "slg_sel4_p"),
            ("slg_lane2", "slg_lane2_p"),
            ("slg_", "slg__p"),
        ] {
            assert_eq!(c_ident(name), want, "{name}");
        }
        // everything else is kept (the kernel body has no `_t*` scratch
        // arrays any more)
        for name in ["s", "sx", "v1a", "S", "U", "tmp1", "_t", "_ta", "_tb", "slg", "slgx"] {
            assert_eq!(c_ident(name), name);
        }
        assert_eq!(c_ident("x.y"), "x_y");
        assert_eq!(c_ident("1x"), "_1x");

        // an operand named like a helper cannot shadow it
        let mut b = FunctionBuilder::new("k", 4);
        let x = b.buffer("slg_sel4", 4, BufKind::ParamInOut);
        let v0 = b.vload_contig(MemRef::new(x, 0));
        let v1 =
            b.vshuffle(v0, v0, vec![LaneSel::A(1), LaneSel::A(0), LaneSel::A(3), LaneSel::A(2)]);
        b.vstore_contig(v1, MemRef::new(x, 0));
        let c = to_c(&b.finish());
        assert!(c.contains("void k(double* restrict slg_sel4_p)"), "{c}");
        assert!(c.contains("v0 = slg_sel4(v0, v0, 1, 0, 3, 2);"), "{c}");
    }

    #[test]
    fn packs_set_lanes_highest_first_with_zero_lanes() {
        // lane 0 first; `set_pd` takes them highest first
        let (r0, r1) = (Some(SOperand::Reg(SReg(0))), Some(SOperand::Reg(SReg(1))));
        for (elems, want) in [
            (vec![r1, Some(2.0.into()), None, r0], "v0 = _mm256_set_pd(s0, 0.0, 2.0, s1);"),
            // s0 is never read, so s1 takes its name
            (vec![None, r1], "v0 = _mm_set_pd(s0, 0.0);"),
        ] {
            let w = elems.len();
            let mut b = FunctionBuilder::new("p", w);
            let x = b.buffer("x", 2, BufKind::ParamIn);
            let y = b.buffer("y", w, BufKind::ParamOut);
            let _ = b.sload(MemRef::new(x, 0));
            let _ = b.sload(MemRef::new(x, 1));
            let v = b.vpack(elems);
            b.vstore_contig(v, MemRef::new(y, 0));
            let f = b.finish();
            let c = to_c_for(&f, Target::Avx2);
            assert!(c.contains(want), "ν={w}:\n{c}");
            assert_digest_matches(&f, Target::Avx2);
        }
    }

    #[test]
    fn declares_only_the_registers_the_body_uses() {
        let mut b = FunctionBuilder::new("d", 4);
        let x = b.buffer("x", 4, BufKind::ParamIn);
        let y = b.buffer("y", 4, BufKind::ParamOut);
        let _unused_s = b.fresh_sreg();
        let _unused_v = b.fresh_vreg();
        let s = b.sload(MemRef::new(x, 0));
        let v = b.vbroadcast(s);
        b.vstore_contig(v, MemRef::new(y, 0));
        let f = b.finish();
        assert_eq!((f.n_sregs, f.n_vregs), (2, 2));
        let c = to_c_for(&f, Target::Avx2);
        assert!(c.contains("  double s0;\n  __m256d v0;\n"), "{c}");
        assert!(!c.contains("s1") && !c.contains("v1"), "{c}");
    }

    /// The kernel body between the declarations and the closing brace.
    fn body(c: &str) -> &str {
        let start = c.find(";\n  ").expect("declarations") + 2;
        &c[start..c.rfind("}\n").unwrap()]
    }

    #[test]
    fn a_value_carried_around_a_rolled_loop_keeps_its_name() {
        let mut b = FunctionBuilder::new("carry", 1);
        let x = b.buffer("x", 4, BufKind::ParamIn);
        let y = b.buffer("y", 1, BufKind::ParamOut);
        let c = b.sload(MemRef::new(x, 0));
        let acc = b.smov(0.0);
        let i = b.begin_for(0, 4, 1);
        let t = b.sload(MemRef::new(x, Affine::var(i)));
        // `c`'s last read is inside the loop, but the next iteration
        // reads it again: no later definition in the loop may take its name
        let u = b.sbin(BinOp::Mul, t, c);
        b.instr(Instr::SBin { op: BinOp::Add, dst: acc, a: acc.into(), b: u.into() });
        b.end_for();
        let w = b.sbin(BinOp::Mul, acc, 2.0);
        b.sstore(w, MemRef::new(y, 0));
        let c = to_c_for(&b.finish(), Target::Scalar);
        assert!(c.contains("  double s0, s1, s2, s3;\n"), "{c}");
        assert_eq!(
            body(&c),
            "  s0 = *x;\n  s1 = 0.0;\n  for (int i0 = 0; i0 < 4; i0 += 1) {\n    s2 = *(x + i0);\n    \
             s3 = s2 * s0;\n    s1 = s1 + s3;\n  }\n  s0 = s1 * 2.0;\n  *y = s0;\n",
            "{c}"
        );
    }

    #[test]
    fn a_value_live_across_an_if_else_keeps_one_name() {
        let mut b = FunctionBuilder::new("branch", 1);
        let x = b.buffer("x", 2, BufKind::ParamIn);
        let y = b.buffer("y", 1, BufKind::ParamOut);
        let p = b.fresh_sreg();
        b.begin_if(Cond::new(0, CmpOp::Lt, 1));
        let t = b.sload(MemRef::new(x, 0));
        b.instr(Instr::SBin { op: BinOp::Mul, dst: p, a: t.into(), b: 2.0.into() });
        b.begin_else();
        let u = b.sload(MemRef::new(x, 1));
        b.instr(Instr::SMov { dst: p, a: u.into() });
        b.end_if();
        let q = b.sbin(BinOp::Add, p, 1.0);
        b.sstore(q, MemRef::new(y, 0));
        let c = to_c_for(&b.finish(), Target::Scalar);
        assert_eq!(
            body(&c),
            "  if (0 < 1) {\n    s0 = *x;\n    s1 = s0 * 2.0;\n  } else {\n    s2 = *(x + 1);\n    \
             s1 = s2;\n  }\n  s0 = s1 + 1.0;\n  *y = s0;\n",
            "{c}"
        );
    }

    #[test]
    fn a_read_before_any_definition_keeps_its_name_from_entry() {
        let mut b = FunctionBuilder::new("early", 1);
        let x = b.buffer("x", 2, BufKind::ParamIn);
        let y = b.buffer("y", 2, BufKind::ParamOut);
        let r = b.fresh_sreg();
        b.sstore(r, MemRef::new(y, 0));
        let a = b.sload(MemRef::new(x, 0));
        b.sstore(a, MemRef::new(y, 1));
        b.instr(Instr::SLoad { dst: r, src: MemRef::new(x, 1) });
        b.sstore(r, MemRef::new(y, 0));
        let c = to_c_for(&b.finish(), Target::Scalar);
        assert_eq!(
            body(&c),
            "  *y = s0;\n  s1 = *x;\n  *(y + 1) = s1;\n  s0 = *(x + 1);\n  *y = s0;\n",
            "{c}"
        );
    }

    #[test]
    fn a_destination_takes_the_name_its_sources_last_read_frees() {
        let mut b = FunctionBuilder::new("reuse", 4);
        let x = b.buffer("x", 8, BufKind::ParamIn);
        let y = b.buffer("y", 4, BufKind::ParamOut);
        let v0 = b.vload_contig(MemRef::new(x, 0));
        let v1 = b.vload_contig(MemRef::new(x, 4));
        let p = b.vbin(BinOp::Mul, v0, v1);
        let s = b.vbin(BinOp::Add, p, p);
        b.vstore_contig(s, MemRef::new(y, 0));
        let f = b.finish();
        assert_eq!(f.n_vregs, 4);
        let c = to_c_for(&f, Target::Avx2);
        assert!(c.contains("  __m256d v0, v1;\n"), "{c}");
        assert_eq!(
            body(&c),
            "  v0 = _mm256_loadu_pd(x);\n  v1 = _mm256_loadu_pd((x + 4));\n  \
             v0 = _mm256_mul_pd(v0, v1);\n  v0 = _mm256_add_pd(v0, v0);\n  \
             _mm256_storeu_pd(y, v0);\n",
            "{c}"
        );
        assert_eq!(c, to_c_for(&f, Target::Avx2), "naming is deterministic");
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
        assert!(c.contains("s0 = s0 / 3.0;"), "{c}");
        assert!(c.contains("s0 = sqrt(s0);"), "{c}");
        assert!(c.contains("*(x + 1) = s0;"), "{c}");
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
        assert!(c.contains("s0 = fma(s0, 2.0, 3.0);"), "{c}");
        let c = to_c_for(&make(1, FmaKind::NegMulAdd), Target::Avx2Fma);
        assert!(c.contains("s0 = fma(-(s0), 2.0, 3.0);"), "{c}");
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
