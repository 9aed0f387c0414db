//! The persistent, concurrently served tuning cache.
//!
//! [`TuneCache`] is the amortization layer that turns the generator into
//! a service (ROADMAP item 1): one cold autotuning search per canonical
//! key, every later request a replay. Three properties make it scale:
//!
//! * **One short lock** — one `Mutex` guards one map whose entries are
//!   shared handles (`Arc`s). The lock covers a lookup, an `Arc` clone
//!   and the counters; a hit hands out the stored `Arc<CachedWin>`
//!   itself, so the serve engine renders straight from the shared entry
//!   (its JSON-escaped C is built once, on first use). Only the library's
//!   `generate()` copies the kernel into an owned `Generated`, and it
//!   does so, like every file write, after the lock is released.
//! * **In-flight dedupe** — the first request for a key installs an
//!   in-flight *flight* record; concurrent requests for the same key
//!   block on its condvar and receive the owner's result (or its error)
//!   instead of redundantly tuning. Exactly one search runs per unique
//!   key, counted by [`TuneCache::searches`].
//! * **Persistence** — [`TuneCache::save`] writes a versioned,
//!   length-prefixed text format atomically (write-temp + rename), one
//!   record per entry in key order; [`TuneCache::load`] warm-loads it.
//!   A missing, truncated, wrong-version, or garbage file yields an
//!   *empty* cache with a logged reason — a corrupt file is never trusted
//!   and never panics. Loaded entries store the winning spec, emitted C,
//!   and the exact measurement report; the C-IR function is
//!   *re-materialized* (Stage 1–3 for the one winning spec, no search, no
//!   measurement) on first hit and verified byte-identical against the
//!   persisted C — a stale file silently falls back to a fresh search,
//!   counted as a miss.
//!
//! The on-disk format is hand-rolled (this workspace is offline — no
//! serde): a magic/version header, one length-prefixed record per entry,
//! and a trailing `end <count>` marker so truncation is always detected:
//!
//! ```text
//! slingen-tunecache v2
//! entry
//! key <bytes>\n<key...>\n
//! spec <policy> <nu> <threshold>
//! db <hits> <misses>
//! stats <explored> <pruned> <deduped> <predicted>
//! report <bytes>\n<Report::to_wire line>\n
//! code <bytes>\n<emitted C>\n
//! end <entry-count>
//! ```
//!
//! v2 differs from v1 only in that the report line may carry the
//! optional trailing measured-time section (`... M <cycles> <ns>
//! <reps>`) written by the measured-autotuning flow; [`TuneCache::load`]
//! accepts both versions, so existing v1 files keep warm-loading
//! unchanged.

use crate::tuner::{TuneStats, VariantSpec};
use crate::Error;
use slingen_cir::Function;
use slingen_perf::Report;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

const MAGIC: &str = "slingen-tunecache";
/// Version written by [`TuneCache::save`].
const VERSION: u32 = 2;
/// Versions [`TuneCache::load`] accepts: v1 files (pre-measurement) are
/// a strict subset of v2, so they parse unchanged.
const ACCEPTED_VERSIONS: [u32; 2] = [1, 2];

/// The cached outcome of one tuned generation, fully materialized and
/// shared (behind an `Arc`) by every request that hits it.
#[derive(Debug)]
pub(crate) struct CachedWin {
    pub(crate) spec: VariantSpec,
    pub(crate) function: Function,
    pub(crate) c_code: String,
    pub(crate) report: Report,
    pub(crate) db_stats: (usize, usize),
    pub(crate) stats: TuneStats,
    /// `c_code` escaped for a JSON string literal, filled by the first
    /// `emit:"c"` response rendered from this entry (see
    /// [`CachedWin::c_json`]), so cold searches never pay for it.
    c_json: OnceLock<String>,
}

impl CachedWin {
    pub(crate) fn new(
        spec: VariantSpec,
        function: Function,
        c_code: String,
        report: Report,
        db_stats: (usize, usize),
        stats: TuneStats,
    ) -> CachedWin {
        CachedWin { spec, function, c_code, report, db_stats, stats, c_json: OnceLock::new() }
    }

    /// The emitted C escaped for a JSON string literal, built once per
    /// entry and shared by every later response.
    pub(crate) fn c_json(&self) -> &str {
        self.c_json.get_or_init(|| crate::serve::escape_json(&self.c_code))
    }
}

/// An entry loaded from disk, not yet re-materialized: everything except
/// the C-IR function (which Stage 1–3 reproduces deterministically from
/// the spec). The report is kept in wire form because parsing it needs
/// the requesting machine model.
#[derive(Debug)]
pub(crate) struct PersistedWin {
    pub(crate) spec: VariantSpec,
    pub(crate) c_code: String,
    pub(crate) report_wire: String,
    pub(crate) db_stats: (usize, usize),
    pub(crate) stats: TuneStats,
}

/// One in-flight search: the owner publishes exactly once, waiters block
/// on the condvar.
struct Flight {
    result: Mutex<Option<Result<Arc<CachedWin>, Error>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Arc<Flight> {
        Arc::new(Flight { result: Mutex::new(None), cv: Condvar::new() })
    }

    fn publish(&self, r: Result<Arc<CachedWin>, Error>) {
        let mut slot = self.result.lock().unwrap();
        if slot.is_none() {
            *slot = Some(r);
        }
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<CachedWin>, Error> {
        let mut slot = self.result.lock().unwrap();
        while slot.is_none() {
            slot = self.cv.wait(slot).unwrap();
        }
        slot.as_ref().unwrap().clone()
    }
}

#[derive(Clone)]
enum Entry {
    Ready(Arc<CachedWin>),
    Persisted(Arc<PersistedWin>),
    InFlight(Arc<Flight>),
}

/// One stored entry plus its recency stamp: the value of the hit clock
/// the last time this key was looked up or (re)inserted. Save-time
/// eviction ([`TuneCache::save_capped`]) drops the smallest stamps first.
struct Slot {
    entry: Entry,
    last_hit: u64,
}

/// Counters of a [`TuneCache`] (see [`TuneCache::totals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTotals {
    /// Entries currently stored.
    pub entries: usize,
    /// Lookups answered from a stored entry (in memory, or a loaded
    /// entry that re-materialized).
    pub hits: u64,
    /// Lookups that found nothing usable and started a search.
    pub misses: u64,
    /// Completed searches/materializations stored.
    pub inserts: u64,
    /// Requests that piggybacked on an in-flight search.
    pub coalesced: u64,
    /// Full autotuning searches actually run (the in-flight dedupe and
    /// persisted-replay invariants are stated over this counter).
    pub searches: u64,
}

/// Everything behind the cache lock.
#[derive(Default)]
struct Store {
    map: HashMap<String, Slot>,
    /// Every counter but `entries`, which `totals()` reads off `map`.
    totals: CacheTotals,
    /// Monotone lookup clock driving the per-slot recency stamps.
    clock: u64,
}

impl Store {
    /// Advance the hit clock and return the new stamp.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Drop least-recently-hit settled entries until at most `cap`
    /// remain. Stamps are unique, so the cutoff is exact.
    fn evict_least_recently_hit(&mut self, cap: usize) {
        let mut stamps: Vec<u64> = self
            .map
            .values()
            .filter(|s| !matches!(s.entry, Entry::InFlight(_)))
            .map(|s| s.last_hit)
            .collect();
        if stamps.len() <= cap {
            return;
        }
        let excess = stamps.len() - cap;
        let (_, &mut cutoff, _) = stamps.select_nth_unstable(excess - 1);
        self.map.retain(|_, s| matches!(s.entry, Entry::InFlight(_)) || s.last_hit > cutoff);
    }
}

/// A shareable autotuning cache keyed by (program, machine, search space,
/// options, target). Cloning the handle shares the underlying store, so
/// one cache can serve many threads; `Options::default()` creates a
/// fresh one. See the module docs for the locking rule, in-flight
/// dedupe, and the persistent format.
#[derive(Clone, Default)]
pub struct TuneCache(Arc<Mutex<Store>>);

impl TuneCache {
    /// An empty cache.
    pub fn new() -> Self {
        TuneCache::default()
    }

    fn store(&self) -> MutexGuard<'_, Store> {
        self.0.lock().expect("no code panics while holding the tune cache lock")
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (usize, usize) {
        let t = self.totals();
        (t.hits as usize, t.misses as usize)
    }

    /// All counters, read under one lock.
    pub fn totals(&self) -> CacheTotals {
        let s = self.store();
        CacheTotals { entries: s.map.len(), ..s.totals }
    }

    /// Full autotuning searches run through this cache (one per unique
    /// key, regardless of how many requests raced on it).
    pub fn searches(&self) -> u64 {
        self.store().totals.searches
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.totals().entries
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count one search; it is also the miss of the lookup that started
    /// it (a vacant key, or a loaded entry that failed to re-materialize).
    pub(crate) fn note_search(&self) {
        let mut s = self.store();
        s.totals.searches += 1;
        s.totals.misses += 1;
    }

    /// Resolve `key`: a stored entry is a [`Claim::Hit`]; an in-flight
    /// search blocks until its owner publishes; a vacant slot makes the
    /// caller the owner ([`Claim::Owner`]) — it must run the search (or
    /// materialize the persisted payload) and settle the [`Ticket`].
    pub(crate) fn claim(&self, key: &str) -> Claim {
        let found = {
            let mut guard = self.store();
            let s = &mut *guard;
            let now = s.tick();
            let Some(slot) = s.map.get_mut(key) else {
                let flight = Flight::new();
                let slot = Slot { entry: Entry::InFlight(flight.clone()), last_hit: now };
                s.map.insert(key.to_string(), slot);
                return Claim::Owner(Ticket::new(self, key, flight, None));
            };
            slot.last_hit = now;
            match &slot.entry {
                Entry::Ready(win) => {
                    s.totals.hits += 1;
                    Ok(win.clone())
                }
                Entry::InFlight(flight) => {
                    s.totals.coalesced += 1;
                    Err(flight.clone())
                }
                Entry::Persisted(p) => {
                    let (p, flight) = (p.clone(), Flight::new());
                    slot.entry = Entry::InFlight(flight.clone());
                    return Claim::Owner(Ticket::new(self, key, flight, Some(p)));
                }
            }
        };
        // Wait for an in-flight owner to publish outside the lock.
        match found {
            Ok(win) => Claim::Hit { win, coalesced: false },
            Err(flight) => match flight.wait() {
                Ok(win) => Claim::Hit { win, coalesced: true },
                Err(e) => Claim::Failed(e),
            },
        }
    }

    /// Store a freshly loaded persisted entry (load path only).
    fn insert_persisted(&self, key: String, win: PersistedWin) {
        let mut s = self.store();
        let slot = Slot { entry: Entry::Persisted(Arc::new(win)), last_hit: s.tick() };
        s.map.insert(key, slot);
    }

    /// Atomically persist every settled entry: write a temp file next to
    /// `path`, then rename over it. In-flight entries are skipped (their
    /// searches have not finished); persisted-but-unmaterialized entries
    /// round-trip unchanged. Returns the number of entries written.
    pub fn save(&self, path: &Path) -> io::Result<usize> {
        self.save_capped(path, None)
    }

    /// [`TuneCache::save`] with a size cap: when the store holds more
    /// than `max_entries` settled entries, the least-recently-hit
    /// surplus is evicted — dropped from memory *and* omitted from the
    /// file — before writing. Recency is the in-process hit clock
    /// (every lookup or insert stamps its slot), so long-running serve
    /// processes keep their hot working set and shed one-off requests.
    /// In-flight entries are never evicted (their owners hold tickets)
    /// and, as always, never persisted. Only eviction and the snapshot
    /// of shared entries hold the lock; the file is written after it.
    pub fn save_capped(&self, path: &Path, max_entries: Option<usize>) -> io::Result<usize> {
        let mut entries: Vec<(String, Entry)> = {
            let mut s = self.store();
            if let Some(cap) = max_entries {
                s.evict_least_recently_hit(cap);
            }
            s.map
                .iter()
                .filter(|(_, slot)| !matches!(slot.entry, Entry::InFlight(_)))
                .map(|(key, slot)| (key.clone(), slot.entry.clone()))
                .collect()
        };
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        use std::fmt::Write as _;
        let mut out = format!("{MAGIC} v{VERSION}\n");
        for (key, entry) in &entries {
            let (spec, c_code, wire, db_stats, stats) = match entry {
                Entry::Ready(w) => (w.spec, &w.c_code, w.report.to_wire(), w.db_stats, w.stats),
                Entry::Persisted(p) => {
                    (p.spec, &p.c_code, p.report_wire.clone(), p.db_stats, p.stats)
                }
                Entry::InFlight(_) => unreachable!("in-flight entries are not snapshotted"),
            };
            out.push_str("entry\n");
            let _ = write!(out, "key {}\n{key}\n", key.len());
            let _ = writeln!(out, "spec {} {} {}", spec.policy, spec.nu, spec.loop_threshold);
            let _ = writeln!(out, "db {} {}", db_stats.0, db_stats.1);
            let _ = writeln!(
                out,
                "stats {} {} {} {}",
                stats.explored, stats.pruned, stats.deduped, stats.predicted
            );
            let _ = write!(out, "report {}\n{wire}\n", wire.len());
            let _ = write!(out, "code {}\n{c_code}\n", c_code.len());
        }
        let _ = writeln!(out, "end {}", entries.len());
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, &out)?;
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(entries.len()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Warm-load a cache file. A missing file is a normal first run
    /// (silently empty); any other load failure logs its reason to
    /// stderr and returns an empty cache — never a panic, never a hard
    /// error into `generate()`.
    pub fn load(path: &Path) -> TuneCache {
        if !path.exists() {
            return TuneCache::new();
        }
        match TuneCache::load_checked(path) {
            Ok(c) => c,
            Err(reason) => {
                eprintln!("slingen: ignoring tuning cache {}: {reason}", path.display());
                TuneCache::new()
            }
        }
    }

    /// [`TuneCache::load`] with the failure reason surfaced, for callers
    /// (and tests) that want to distinguish corruption from emptiness.
    pub fn load_checked(path: &Path) -> Result<TuneCache, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
        let entries = parse_cache_file(&src)?;
        let cache = TuneCache::new();
        for (key, win) in entries {
            cache.insert_persisted(key, win);
        }
        Ok(cache)
    }
}

impl fmt::Debug for TuneCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TuneCache").field(&self.totals()).finish()
    }
}

/// How a [`TuneCache::claim`] resolved.
pub(crate) enum Claim {
    /// The key was cached (or an in-flight search finished): here is the
    /// stored win itself, shared, not copied. `coalesced` marks a request
    /// that waited on that in-flight search.
    Hit { win: Arc<CachedWin>, coalesced: bool },
    /// Nothing cached: the caller owns the search for this key and must
    /// settle the ticket.
    Owner(Ticket),
    /// The in-flight owner this request coalesced onto failed; its error
    /// is shared.
    Failed(Error),
}

/// Ownership of one in-flight cache slot. The owner must call
/// [`Ticket::fulfill`] or [`Ticket::fail`]; dropping an unsettled ticket
/// (owner panicked) wakes all waiters with an error and vacates the slot
/// so a later request can retry.
pub(crate) struct Ticket {
    cache: TuneCache,
    key: String,
    flight: Arc<Flight>,
    payload: Option<Arc<PersistedWin>>,
    settled: bool,
}

impl Ticket {
    fn new(
        cache: &TuneCache,
        key: &str,
        flight: Arc<Flight>,
        payload: Option<Arc<PersistedWin>>,
    ) -> Ticket {
        Ticket { cache: cache.clone(), key: key.to_string(), flight, payload, settled: false }
    }

    /// The persisted payload to re-materialize, if this slot was loaded
    /// from disk.
    pub(crate) fn take_persisted(&mut self) -> Option<Arc<PersistedWin>> {
        self.payload.take()
    }

    /// Publish the finished win: the slot becomes [`Entry::Ready`] and
    /// waiters wake sharing it; returns the published handle. A
    /// re-materialized loaded entry (`stats.persisted`) counts as the hit
    /// of the claim that owned it.
    pub(crate) fn fulfill(mut self, win: CachedWin) -> Arc<CachedWin> {
        self.settled = true;
        let win = Arc::new(win);
        let key = std::mem::take(&mut self.key);
        {
            let mut s = self.cache.store();
            s.totals.inserts += 1;
            s.totals.hits += u64::from(win.stats.persisted);
            let slot = Slot { entry: Entry::Ready(win.clone()), last_hit: s.tick() };
            s.map.insert(key, slot);
        }
        self.flight.publish(Ok(win.clone()));
        win
    }

    /// Publish a failure: waiters wake with the (cloned) error, the slot
    /// is vacated so the next request retries.
    pub(crate) fn fail(mut self, e: Error) {
        self.settled = true;
        self.vacate(e);
    }

    fn vacate(&self, e: Error) {
        {
            let mut s = self.cache.store();
            if let Some(Slot { entry: Entry::InFlight(f), .. }) = s.map.get(&self.key) {
                if Arc::ptr_eq(f, &self.flight) {
                    s.map.remove(&self.key);
                }
            }
        }
        self.flight.publish(Err(e));
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if !self.settled {
            self.vacate(Error::Synth(slingen_synth::SynthError::Unsupported(
                "in-flight tuning search abandoned".into(),
            )));
        }
    }
}

/// Strict parser for the cache file format (see module docs). Any
/// anomaly — bad magic, unknown version, truncation, lying lengths, a
/// missing `end` marker, an entry-count mismatch — rejects the *whole*
/// file with a reason: a damaged cache is never partially trusted.
fn parse_cache_file(src: &str) -> Result<Vec<(String, PersistedWin)>, String> {
    let mut pos = 0usize;

    fn take_line<'a>(src: &'a str, pos: &mut usize) -> Result<&'a str, String> {
        if *pos >= src.len() {
            return Err("truncated: expected a line".into());
        }
        let rest = &src[*pos..];
        let end = rest.find('\n').ok_or("truncated: unterminated line")?;
        *pos += end + 1;
        Ok(&rest[..end])
    }

    fn take_blob<'a>(src: &'a str, pos: &mut usize, len: usize) -> Result<&'a str, String> {
        let blob = src.get(*pos..*pos + len).ok_or("truncated: blob shorter than its length")?;
        *pos += len;
        match src.as_bytes().get(*pos) {
            Some(b'\n') => {
                *pos += 1;
                Ok(blob)
            }
            _ => Err("framing: blob not newline-terminated (lying length?)".into()),
        }
    }

    let header = take_line(src, &mut pos)?;
    let version = header
        .strip_prefix(MAGIC)
        .and_then(|r| r.strip_prefix(" v"))
        .ok_or_else(|| format!("bad magic: {header:?}"))?;
    let v = version.parse::<u32>().map_err(|_| format!("bad version: {version:?}"))?;
    if !ACCEPTED_VERSIONS.contains(&v) {
        return Err(format!("unsupported version {v} (accepted {ACCEPTED_VERSIONS:?})"));
    }

    let mut entries = Vec::new();
    loop {
        let line = take_line(src, &mut pos)?;
        if let Some(n) = line.strip_prefix("end ") {
            let n: usize = n.parse().map_err(|_| "bad end count")?;
            if n != entries.len() {
                return Err(format!("entry count mismatch: marker {n}, found {}", entries.len()));
            }
            if !src[pos..].trim().is_empty() {
                return Err("trailing garbage after end marker".into());
            }
            return Ok(entries);
        }
        if line != "entry" {
            return Err(format!("expected `entry` or `end`, got {line:?}"));
        }
        let klen: usize = take_line(src, &mut pos)?
            .strip_prefix("key ")
            .ok_or("expected `key <len>`")?
            .parse()
            .map_err(|_| "bad key length")?;
        let key = take_blob(src, &mut pos, klen)?.to_string();

        let spec_line = take_line(src, &mut pos)?;
        let mut t = spec_line.strip_prefix("spec ").ok_or("expected `spec`")?.split(' ');
        let policy = t.next().and_then(slingen_synth::Policy::parse).ok_or("bad spec policy")?;
        let nu: usize = t.next().and_then(|s| s.parse().ok()).ok_or("bad spec nu")?;
        let loop_threshold: usize =
            t.next().and_then(|s| s.parse().ok()).ok_or("bad spec threshold")?;
        if t.next().is_some() {
            return Err("trailing tokens on spec line".into());
        }

        let db_line = take_line(src, &mut pos)?;
        let mut t = db_line.strip_prefix("db ").ok_or("expected `db`")?.split(' ');
        let db_hits: usize = t.next().and_then(|s| s.parse().ok()).ok_or("bad db hits")?;
        let db_misses: usize = t.next().and_then(|s| s.parse().ok()).ok_or("bad db misses")?;

        let stats_line = take_line(src, &mut pos)?;
        let mut t = stats_line.strip_prefix("stats ").ok_or("expected `stats`")?.split(' ');
        let mut next_n = || -> Result<usize, String> {
            t.next().and_then(|s| s.parse().ok()).ok_or_else(|| "bad stats field".into())
        };
        let (explored, pruned, deduped, predicted) = (next_n()?, next_n()?, next_n()?, next_n()?);

        let rlen: usize = take_line(src, &mut pos)?
            .strip_prefix("report ")
            .ok_or("expected `report <len>`")?
            .parse()
            .map_err(|_| "bad report length")?;
        let report_wire = take_blob(src, &mut pos, rlen)?.to_string();

        let clen: usize = take_line(src, &mut pos)?
            .strip_prefix("code ")
            .ok_or("expected `code <len>`")?
            .parse()
            .map_err(|_| "bad code length")?;
        let c_code = take_blob(src, &mut pos, clen)?.to_string();

        entries.push((
            key,
            PersistedWin {
                spec: VariantSpec { policy, nu, loop_threshold },
                c_code,
                report_wire,
                db_stats: (db_hits, db_misses),
                stats: TuneStats {
                    explored,
                    pruned,
                    deduped,
                    predicted,
                    persisted: true,
                    ..TuneStats::default()
                },
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Generated;
    use std::sync::Barrier;
    use std::time::Duration;

    /// A cached win whose C is `/* tag */`, so tests can tell wins apart.
    fn win(tag: &str) -> CachedWin {
        static BASE: OnceLock<Generated> = OnceLock::new();
        let g = BASE.get_or_init(|| {
            crate::generate(&crate::apps::potrf(3), &crate::Options::default()).unwrap()
        });
        let c_code = format!("/* {tag} */");
        CachedWin::new(g.spec, g.function.clone(), c_code, g.report.clone(), g.db_stats, g.tuning)
    }

    fn owner(cache: &TuneCache, key: &str) -> Ticket {
        match cache.claim(key) {
            Claim::Owner(t) => t,
            _ => panic!("`{key}`: expected to own the search"),
        }
    }

    /// The shared win of a hit, and whether it coalesced.
    fn hit(claim: Claim) -> (Arc<CachedWin>, bool) {
        match claim {
            Claim::Hit { win, coalesced } => (win, coalesced),
            Claim::Owner(_) => panic!("expected a hit, got ownership"),
            Claim::Failed(e) => panic!("expected a hit, got {e}"),
        }
    }

    fn failure(claim: Claim) -> String {
        match claim {
            Claim::Failed(e) => e.to_string(),
            _ => panic!("expected the owner's error"),
        }
    }

    /// Spin until `n` requests are blocked on an in-flight search.
    fn await_coalesced(cache: &TuneCache, n: u64) {
        while cache.totals().coalesced < n {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn racing_claims_elect_one_owner_and_share_its_win() {
        const K: usize = 8;
        let cache = TuneCache::new();
        let barrier = Barrier::new(K);
        let outcomes: Vec<Option<String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..K)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        match cache.claim("k") {
                            Claim::Owner(t) => {
                                t.fulfill(win("owner"));
                                None
                            }
                            other => Some(hit(other).0.c_code.clone()),
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(outcomes.iter().filter(|o| o.is_none()).count(), 1, "one owner");
        for c in outcomes.into_iter().flatten() {
            assert_eq!(c, "/* owner */", "every other claim carries the owner's win");
        }
        let t = cache.totals();
        assert_eq!(t.hits + t.coalesced, (K - 1) as u64);
        assert_eq!((t.entries, t.inserts), (1, 1));
    }

    #[test]
    fn failed_search_reaches_every_waiter_and_frees_the_key() {
        let cache = TuneCache::new();
        let ticket = owner(&cache, "k");
        let errors: Vec<String> = std::thread::scope(|s| {
            let waiters: Vec<_> = (0..3).map(|_| s.spawn(|| failure(cache.claim("k")))).collect();
            await_coalesced(&cache, 3);
            ticket.fail(Error::Synth(slingen_synth::SynthError::Unsupported("boom".into())));
            waiters.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(errors.len(), 3);
        assert!(errors.iter().all(|e| e.contains("boom")), "{errors:?}");
        assert!(cache.is_empty(), "a failed search leaves no entry");
        owner(&cache, "k").fulfill(win("retry"));
        assert_eq!(hit(cache.claim("k")).0.c_code, "/* retry */");
    }

    #[test]
    fn dropped_ticket_wakes_waiters_and_vacates_the_slot() {
        let cache = TuneCache::new();
        let ticket = owner(&cache, "k");
        let error = std::thread::scope(|s| {
            let waiter = s.spawn(|| failure(cache.claim("k")));
            await_coalesced(&cache, 1);
            drop(ticket);
            waiter.join().unwrap()
        });
        assert!(error.contains("abandoned"), "{error}");
        assert!(cache.is_empty(), "an abandoned search leaves no entry");
        drop(owner(&cache, "k"));
    }

    #[test]
    fn loaded_entry_is_owned_once_and_coalesces_concurrent_claims() {
        let cache = TuneCache::new();
        let w = win("disk");
        let persisted = PersistedWin {
            spec: w.spec,
            c_code: w.c_code.clone(),
            report_wire: w.report.to_wire(),
            db_stats: w.db_stats,
            stats: TuneStats { persisted: true, ..w.stats },
        };
        cache.insert_persisted("k".into(), persisted);
        let mut ticket = owner(&cache, "k");
        let payload = ticket.take_persisted().expect("the owner receives the payload");
        assert_eq!(payload.c_code, "/* disk */");
        let (waited, coalesced) = std::thread::scope(|s| {
            let waiter = s.spawn(|| hit(cache.claim("k")));
            await_coalesced(&cache, 1);
            ticket.fulfill(CachedWin { stats: payload.stats, ..w });
            waiter.join().unwrap()
        });
        assert_eq!(waited.c_code, "/* disk */");
        assert!(coalesced && waited.stats.persisted);
        assert!(!hit(cache.claim("k")).1, "later claims are plain hits");
    }

    #[test]
    fn hits_share_the_stored_win_and_escape_its_c_once() {
        let cache = TuneCache::new();
        let published = owner(&cache, "k").fulfill(win("say \"hi\"\n"));
        let (first, _) = hit(cache.claim("k"));
        let (second, _) = hit(cache.claim("k"));
        assert!(Arc::ptr_eq(&first, &published), "a hit returns the published win");
        assert!(Arc::ptr_eq(&first, &second), "every hit shares one win");
        let rendered = first.c_json();
        assert_eq!(rendered, crate::serve::escape_json(&first.c_code));
        assert_eq!(rendered.as_ptr(), second.c_json().as_ptr(), "the C is escaped once per entry");
    }

    #[test]
    fn save_capped_never_evicts_or_writes_in_flight_entries() {
        let cache = TuneCache::new();
        for key in ["a", "b", "c"] {
            owner(&cache, key).fulfill(win(key));
        }
        let ticket = owner(&cache, "pending");
        let path = std::env::temp_dir()
            .join(format!("slingen-cache-unit-{}-inflight", std::process::id()));
        assert_eq!(cache.save_capped(&path, Some(0)).unwrap(), 0);
        let file = std::fs::read_to_string(&path).unwrap();
        assert!(!file.contains("pending"), "in-flight entries are never written");
        assert_eq!(cache.len(), 1, "every settled entry is evicted, the in-flight one kept");
        ticket.fulfill(win("pending"));
        assert_eq!(hit(cache.claim("pending")).0.c_code, "/* pending */");
        assert_eq!(cache.save_capped(&path, Some(0)).unwrap(), 0);
        assert!(cache.is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
