//! Every lane movement the unparser emits, executed and compared element
//! by element against the VM.
//!
//! The harness checksum (a sum over the output buffers) cannot see two
//! swapped lanes. Here one C-IR function per width applies every
//! `LaneSel` map over `{A0.., B0.., Zero}^ν` to distinct inputs (the
//! first source holds 1..ν, the second ν+1..2ν; the maps that copy one
//! lane everywhere go through the `slg_bc` broadcast helper, the others
//! through `slg_sel` or `blend_pd`), plus every blend mask,
//! every lane extract, scattered stores, a lane reduction and packs of
//! scalar registers, immediates and zero lanes, and stores
//! each result to its own output slots. The emitted C runs under a small
//! `main` that prints every output's IEEE-754 bits, which must equal the
//! VM's output buffer bit for bit.
//!
//! The test needs an x86-64 host with a working `cc` and, for the AVX
//! family, an AVX host; without them it prints why and passes trivially,
//! as `tests/measure.rs` does.

#![cfg(target_arch = "x86_64")]

use slingen_cir::{
    unparse, BufId, BufKind, Function, FunctionBuilder, LaneSel, MemRef, SOperand, Target,
};
use slingen_vm::{execute, BufferSet, NullMonitor};
use std::process::Command;

fn cc_available() -> bool {
    Command::new("cc").arg("--version").output().map(|o| o.status.success()).unwrap_or(false)
}

/// Every selector map of width `w`.
fn all_maps(w: usize) -> Vec<Vec<LaneSel>> {
    let choices: Vec<LaneSel> =
        (0..w).map(LaneSel::A).chain((0..w).map(LaneSel::B)).chain([LaneSel::Zero]).collect();
    let mut maps = vec![Vec::new()];
    for _ in 0..w {
        maps = maps
            .into_iter()
            .flat_map(|m| {
                choices.iter().map(move |&c| {
                    let mut m = m.clone();
                    m.push(c);
                    m
                })
            })
            .collect();
    }
    maps
}

/// The lane-movement function of width `w`: its input buffer, its output
/// buffer, and a label for every output element.
struct LaneFn {
    f: Function,
    x: BufId,
    y: BufId,
    labels: Vec<String>,
}

fn lane_function(w: usize) -> LaneFn {
    let maps = all_maps(w);
    let masks: Vec<Vec<bool>> =
        (0..1usize << w).map(|m| (0..w).map(|i| m >> i & 1 == 1).collect()).collect();
    // stores: reversed, every other lane left out, and a one-lane prefix
    // (masked where the target has masked stores)
    let scatters: Vec<Vec<Option<i64>>> = vec![
        (0..w as i64).rev().map(Some).collect(),
        (0..w as i64).map(|l| (l % 2 == 1).then_some(l)).collect(),
        (0..w as i64).map(|l| (l == 0).then_some(0)).collect(),
    ];

    let mut b = FunctionBuilder::new("lanes", w);
    let x = b.buffer("x", 2 * w, BufKind::ParamIn);
    let va = b.vload_contig(MemRef::new(x, 0));
    let vb = b.vload_contig(MemRef::new(x, w as i64));
    // packs of the input scalars, immediates and zero lanes
    let xs: Vec<Option<SOperand>> =
        (0..2 * w as i64).map(|i| Some(b.sload(MemRef::new(x, i)).into())).collect();
    let packs: Vec<Vec<Option<SOperand>>> = vec![
        xs[..w].to_vec(),
        xs[w..].iter().rev().copied().collect(),
        (0..w).map(|l| if l == 0 { None } else { xs[l] }).collect(),
        (0..w).map(|l| if l + 1 == w { Some(0.5.into()) } else { xs[2 * w - 1 - l] }).collect(),
        (0..w)
            .map(|l| match l % 3 {
                0 => xs[l + 1],
                1 => None,
                _ => Some((-3.0).into()),
            })
            .collect(),
    ];
    let len = (maps.len() + masks.len() + scatters.len() + packs.len()) * w + 2 * w + 1;
    let y = b.buffer("y", len, BufKind::ParamOut);
    let mut labels = Vec::with_capacity(len);
    let mut at = 0i64;
    for sel in &maps {
        let v = b.vshuffle(va, vb, sel.clone());
        b.vstore_contig(v, MemRef::new(y, at));
        let name: Vec<String> = sel.iter().map(ToString::to_string).collect();
        labels.extend((0..w).map(|l| format!("shuffle [{}] lane {l}", name.join(" "))));
        at += w as i64;
    }
    for mask in &masks {
        let v = b.vblend(va, vb, mask.clone());
        b.vstore_contig(v, MemRef::new(y, at));
        labels.extend((0..w).map(|l| format!("blend {mask:?} lane {l}")));
        at += w as i64;
    }
    for lanes in &scatters {
        b.vstore(vb, MemRef::new(y, at), lanes.clone());
        labels.extend((0..w).map(|l| format!("scatter {lanes:?} slot {l}")));
        at += w as i64;
    }
    for pack in &packs {
        let v = b.vpack(pack.clone());
        b.vstore_contig(v, MemRef::new(y, at));
        let name: Vec<String> =
            pack.iter().map(|e| e.map_or_else(|| "0".to_string(), |e| e.to_string())).collect();
        labels.extend((0..w).map(|l| format!("pack [{}] lane {l}", name.join(" "))));
        at += w as i64;
    }
    for (src, name) in [(va, "a"), (vb, "b")] {
        for lane in 0..w {
            let s = b.vextract(src, lane);
            b.sstore(s, MemRef::new(y, at));
            labels.push(format!("extract {name}[{lane}]"));
            at += 1;
        }
    }
    let s = b.vreduce_add(vb);
    b.sstore(s, MemRef::new(y, at));
    labels.push("reduce_add b".to_string());
    assert_eq!(labels.len(), len);
    LaneFn { f: b.finish(), x, y, labels }
}

/// The emitted unit for `target` plus a `main` that calls it on the
/// inputs and prints every output element's bits, one per line.
fn c_program(lf: &LaneFn, inputs: &[f64], target: Target) -> String {
    use std::fmt::Write;
    let mut c = unparse::to_c_for(&lf.f, target);
    let init: Vec<String> = inputs.iter().map(|v| format!("{v:.1}")).collect();
    let n = lf.labels.len();
    let _ = writeln!(c, "\n#include <stdio.h>\n#include <string.h>");
    let _ = writeln!(c, "static const double in[{}] = {{{}}};", inputs.len(), init.join(", "));
    let _ = writeln!(c, "static double out[{n}];");
    let _ = writeln!(c, "int main(void) {{");
    let _ = writeln!(c, "  lanes(in, out);");
    let _ = writeln!(c, "  for (int i = 0; i < {n}; i++) {{");
    let _ = writeln!(c, "    unsigned long long u;");
    let _ = writeln!(c, "    memcpy(&u, &out[i], sizeof u);");
    let _ = writeln!(c, "    printf(\"%016llx\\n\", u);");
    let _ = writeln!(c, "  }}");
    let _ = writeln!(c, "  return 0;");
    let _ = writeln!(c, "}}");
    c
}

/// Compile `source` with the ISA flag `isa`, run it, and parse the
/// printed lines.
///
/// `-O0`: what the C computes does not depend on the optimization level,
/// and gcc needs about 20 s to inline and optimize the 6,561 `slg_sel4`
/// calls at `-O2`, against 2.5 s here. The kernels benchmark and the
/// measured-tuning tests run real kernels at `-O2` against the VM.
fn run_c(source: &str, isa: &str, tag: &str) -> Vec<u64> {
    let dir = std::env::temp_dir().join(format!("slingen-lane-maps-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (src, bin) = (dir.join(format!("{tag}.c")), dir.join(tag));
    std::fs::write(&src, source).unwrap();
    let out = Command::new("cc")
        .args(["-std=c99", "-O0", "-Wall", "-Werror"])
        .arg(isa)
        .arg("-o")
        .arg(&bin)
        .arg(&src)
        .arg("-lm")
        .output()
        .expect("cc runs");
    assert!(out.status.success(), "{tag}: cc failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let run = Command::new(&bin).output().expect("lane program runs");
    assert!(run.status.success(), "{tag}: lane program failed");
    let _ = std::fs::remove_dir_all(&dir);
    String::from_utf8(run.stdout)
        .unwrap()
        .lines()
        .map(|l| u64::from_str_radix(l, 16).expect("hex bits"))
        .collect()
}

fn check(w: usize, target: Target, isa: &str) {
    let tag = format!("lanes{w}_{target}");
    let lf = lane_function(w);
    let inputs: Vec<f64> = (1..=2 * w).map(|v| v as f64).collect();
    let mut bufs = BufferSet::for_function(&lf.f);
    bufs.set(lf.x, &inputs);
    execute(&lf.f, &mut bufs, &mut NullMonitor).expect("VM runs the lane function");
    let want: Vec<u64> = bufs.get(lf.y).iter().map(|v| v.to_bits()).collect();

    let source = c_program(&lf, &inputs, target);
    for helper in ["slg_sel", "slg_bc"] {
        assert!(source.contains(&format!("{helper}{w}(")), "{tag}: no {helper}{w} call");
    }
    let got = run_c(&source, isa, &tag);
    assert_eq!(got.len(), want.len(), "{tag}: output count");
    let wrong: Vec<String> = (0..want.len())
        .filter(|&i| got[i] != want[i])
        .map(|i| {
            let (g, v) = (f64::from_bits(got[i]), f64::from_bits(want[i]));
            format!("{}: C {g} vs VM {v}", lf.labels[i])
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "{tag}: {} of {} outputs differ from the VM, first: {:#?}",
        wrong.len(),
        want.len(),
        &wrong[..wrong.len().min(8)]
    );
}

#[test]
fn every_lane_map_matches_the_vm() {
    if !cc_available() {
        eprintln!("no C compiler; skipping the lane-map check");
        return;
    }
    // 128-bit without blends or masked stores: blends and prefix stores
    // go through the helpers too
    check(2, Target::Sse2, "-msse2");
    if !std::arch::is_x86_feature_detected!("avx") {
        eprintln!("no AVX on this host; skipping the AVX lane maps");
        return;
    }
    // 256-bit: blends as `blend_pd`, broadcasts through `slg_bc4`, every
    // other map through `slg_sel4`, packs as `_mm256_set_pd`
    check(4, Target::Avx2, "-mavx");
    // 128-bit with blends and masked stores
    check(2, Target::Avx2, "-mavx");
}

#[test]
fn the_grid_has_every_map() {
    assert_eq!(all_maps(4).len(), 6561);
    assert_eq!(all_maps(2).len(), 25);
    let mut sorted: Vec<String> = all_maps(2).iter().map(|m| format!("{m:?}")).collect();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), 25, "maps are distinct");
}
