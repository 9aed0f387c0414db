//! The emitted C is the system's deliverable: when a C compiler is
//! available, every benchmark's generated code must *compile* as
//! standalone C (scalar width compiles as plain C99; the AVX output
//! compiles with -mavx on x86 hosts).

use slingen::{apps, Options};
use std::process::Command;

fn cc_available() -> bool {
    Command::new("cc").arg("--version").output().map(|o| o.status.success()).unwrap_or(false)
}

static UNIQUE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Compile `c_code` to an object file in a directory of its own, removed
/// once `cc` returns: the tests run concurrently, so no directory is
/// shared between two calls.
fn compile(c_code: &str, extra: &[&str]) -> Result<(), String> {
    let id = UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("slingen_cc_{}_{id}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let src = dir.join("gen.c");
    let out = std::fs::write(&src, c_code).and_then(|()| {
        Command::new("cc")
            .arg("-std=c99")
            .arg("-c")
            .args(extra)
            .arg("-o")
            .arg(dir.join("gen.o"))
            .arg(&src)
            .output()
    });
    let _ = std::fs::remove_dir_all(&dir);
    let out = out.map_err(|e| e.to_string())?;
    if out.status.success() {
        Ok(())
    } else {
        Err(String::from_utf8_lossy(&out.stderr).into_owned())
    }
}

#[test]
fn scalar_c_compiles_for_all_benchmarks() {
    if !cc_available() {
        eprintln!("no C compiler; skipping");
        return;
    }
    for (name, p) in [
        ("potrf", apps::potrf(8)),
        ("trsyl", apps::trsyl(6)),
        ("trlya", apps::trlya(6)),
        ("trtri", apps::trtri(8)),
        ("kf", apps::kf(4)),
        ("gpr", apps::gpr(6)),
        ("l1a", apps::l1a(8)),
    ] {
        let opts = Options { nu: 1, ..Options::default() };
        let g = slingen::generate(&p, &opts).unwrap();
        compile(&g.c_code, &[]).unwrap_or_else(|e| panic!("{name} scalar C: {e}"));
    }
}

#[test]
fn avx_c_compiles_for_all_benchmarks() {
    if !cc_available() {
        eprintln!("no C compiler; skipping");
        return;
    }
    // probe AVX support of the host toolchain
    if compile("#include <immintrin.h>\nint main(void){__m256d x = _mm256_set1_pd(1.0); (void)x; return 0;}", &["-mavx"]).is_err() {
        eprintln!("toolchain lacks AVX; skipping");
        return;
    }
    for (name, p) in [
        ("potrf", apps::potrf(8)),
        ("trtri", apps::trtri(8)),
        ("kf", apps::kf(4)),
        ("l1a", apps::l1a(8)),
    ] {
        let g = slingen::generate(&p, &Options::default()).unwrap();
        compile(&g.c_code, &["-mavx"]).unwrap_or_else(|e| panic!("{name} AVX C: {e}"));
    }
}
