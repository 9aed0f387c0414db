//! `slingen-serve` — the kernel-generation service front-end.
//!
//! Reads line-delimited JSON requests (see `slingen::serve`) from stdin
//! (default) or a Unix socket, answers each with one JSON response line,
//! and keeps every tuning result in one shared cache so repeated
//! and concurrent requests replay instead of re-searching.
//!
//! ```text
//! slingen-serve [--workers N] [--cache-file PATH] [--cache-max-entries N]
//!               [--socket PATH] [--target T] [--measure]
//! ```
//!
//! * `--workers N`    worker threads sharing the cache (default 4)
//! * `--cache-file P` warm-load the tuning cache from P at startup and
//!   atomically save it back on shutdown (stdin mode) or after every
//!   connection (socket mode); a missing/corrupt file starts empty
//! * `--cache-max-entries N` cap the cache at N entries: every save
//!   evicts the least-recently-hit surplus (memory and file), so a
//!   long-running service keeps its hot working set bounded
//! * `--socket P`     listen on a Unix socket instead of stdin; each
//!   connection is served with the worker pool, responses go back on
//!   the same connection
//! * `--target T`     default ISA for requests without a `target` field
//!   (scalar | sse2 | avx2 | avx2fma; default avx2)
//! * `--measure`      rank winners by hardware timing (two-stage
//!   measured autotuning); falls back to the model per request, with a
//!   logged reason, when no C compiler works. Responses carry
//!   `"cycles_source":"model"|"measured"` either way.
//!
//! On shutdown a one-line JSON stats summary is written to stderr, e.g.
//! `{"cache_entries": 5, ..., "searches": 0, "served_model": 3,
//! "served_measured": 2}`.

use slingen::serve::{serve_lines, Engine, ServeSummary};
use slingen::{MeasureConfig, Target, TuneCache};
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workers: usize,
    cache_file: Option<PathBuf>,
    cache_max_entries: Option<usize>,
    socket: Option<PathBuf>,
    target: Target,
    measure: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workers: 4,
        cache_file: None,
        cache_max_entries: None,
        socket: None,
        target: Target::Avx2,
        measure: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .ok()
                    .filter(|w| (1..=256).contains(w))
                    .ok_or("--workers must be an integer in 1..=256")?;
            }
            "--cache-file" => args.cache_file = Some(PathBuf::from(value("--cache-file")?)),
            "--cache-max-entries" => {
                args.cache_max_entries = Some(
                    value("--cache-max-entries")?
                        .parse()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or("--cache-max-entries must be a positive integer")?,
                );
            }
            "--socket" => args.socket = Some(PathBuf::from(value("--socket")?)),
            "--target" => {
                let t = value("--target")?;
                args.target = Target::parse(&t).ok_or(format!("unknown target `{t}`"))?;
            }
            "--measure" => args.measure = true,
            "--help" | "-h" => {
                println!(
                    "usage: slingen-serve [--workers N] [--cache-file PATH] \
                     [--cache-max-entries N] [--socket PATH] [--target T] [--measure]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn save_cache(engine: &Engine, path: &std::path::Path, max_entries: Option<usize>) {
    match engine.cache().save_capped(path, max_entries) {
        Ok(n) => eprintln!("slingen-serve: saved {n} cache entries to {}", path.display()),
        Err(e) => eprintln!("slingen-serve: cache save to {} failed: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slingen-serve: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cache = match &args.cache_file {
        Some(path) => TuneCache::load(path),
        None => TuneCache::new(),
    };
    let mut engine = Engine::new(cache, args.target);
    if args.measure {
        engine = engine.with_measure(MeasureConfig::hardware());
    }
    let engine = engine;

    let result: std::io::Result<ServeSummary> = match &args.socket {
        None => {
            let stdin = std::io::stdin();
            serve_lines(&engine, stdin.lock(), std::io::stdout(), args.workers)
        }
        Some(path) => serve_socket(
            &engine,
            path,
            args.workers,
            args.cache_file.as_deref(),
            args.cache_max_entries,
        ),
    };

    if let Some(path) = &args.cache_file {
        save_cache(&engine, path, args.cache_max_entries);
    }
    eprintln!("{}", engine.stats_json());

    match result {
        Ok(summary) => {
            eprintln!(
                "slingen-serve: handled {} requests ({} errors)",
                summary.requests, summary.errors
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("slingen-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Accept connections on a Unix socket; each connection's request lines
/// are pumped through the shared worker pool and answered on the same
/// connection. Serves until the process is killed (or accept fails).
fn serve_socket(
    engine: &Engine,
    path: &std::path::Path,
    workers: usize,
    cache_file: Option<&std::path::Path>,
    cache_max_entries: Option<usize>,
) -> std::io::Result<ServeSummary> {
    use std::os::unix::net::UnixListener;

    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    eprintln!("slingen-serve: listening on {}", path.display());
    let mut total = ServeSummary::default();
    for stream in listener.incoming() {
        let stream = stream?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        match serve_lines(engine, reader, &mut writer, workers) {
            Ok(s) => {
                total.requests += s.requests;
                total.errors += s.errors;
            }
            Err(e) => eprintln!("slingen-serve: connection error: {e}"),
        }
        let _ = writer.flush();
        // Persist eagerly so a kill between connections loses nothing.
        if let Some(p) = cache_file {
            save_cache(engine, p, cache_max_entries);
        }
    }
    Ok(total)
}
