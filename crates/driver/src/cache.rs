//! Content-addressed result cache.
//!
//! A cache key is a 64-bit FNV-1a hash of the *normalized analysis input*:
//! the transition-system content (variable names, cut points, per-transition
//! formulas — not the program name), the engine configuration, every option
//! that can change the verdict, and what the invariants come from. For a
//! job that carries its program — and hence can earn a conditional verdict
//! — that is the program content itself (the refinement pipeline sees the
//! whole CFG, not just the cut-point transition system): its invariants are
//! a function of the program, the invariant options and the IR pipeline
//! version, all in the key, so a lookup needs no invariant work. A job
//! without a program keys on its one-shot invariants. Two benchmarks with
//! the same analysis input therefore share one entry even across suites,
//! and repeated batch runs are near-free.
//!
//! The store is an in-memory map behind a mutex, each entry kept as its
//! encoded report text — the bytes a save writes, decoded on lookup by the
//! same codec a reloaded file goes through — with the stats keys that every
//! entry repeats packed into one byte each. It is optionally persisted to a
//! JSON file ([`ResultCache::load`] / [`ResultCache::save`]) so cache state
//! survives across `termite` CLI invocations. Saves are atomic
//! (write-then-rename), and long-lived consumers recover from a corrupt
//! file via [`ResultCache::load_or_quarantine`] — the damaged file is moved
//! aside and the service starts with an empty cache instead of dying.

use crate::job::{AnalysisJob, JobInput};
use crate::json::Json;
use crate::lock;
use crate::portfolio::EngineSelection;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use termite_core::{
    AnalysisOptions, Precondition, RankingFunction, StatKind, StatValue, SynthesisStats,
    TerminationReport, UnknownReason, Verdict, STAT_FIELDS,
};
use termite_linalg::QVector;
use termite_num::Rational;
use termite_polyhedra::{Constraint, ConstraintKind, Polyhedron};

/// Version stamp of the on-disk format: bump it whenever the schema changes.
/// Version 2 added the structured verdict (`terminates` / `conditional` /
/// `unknown` with a reason, plus the inferred precondition); version 3
/// widened conditional verdicts to a disjunctive `preconditions` array (each
/// disjunct a clause plus an optional per-disjunct ranking). Older files are
/// still accepted and migrated entry-by-entry on read: a v1 `ranking`
/// becomes an unconditional proof, a v1 `null` an
/// `Unknown(NoRankingFunction)`, and a v2 single `precondition` a
/// one-disjunct DNF.
const FORMAT_VERSION: f64 = 3.0;

/// Oldest on-disk version [`ResultCache::load`] can migrate.
const OLDEST_READABLE_VERSION: f64 = 1.0;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The content-addressed key of one (job, engine configuration) pair.
///
/// Hashes the transition-system *content* — deliberately not the program
/// name, so identical programs submitted under different names share a cache
/// entry — plus the program of a program-carrying job, or the one-shot
/// invariants of a job without one.
pub fn cache_key(
    job: &AnalysisJob,
    engines: &EngineSelection,
    options: &AnalysisOptions,
) -> String {
    format!("{:016x}", fnv1a(key_text(job, engines, options).as_bytes()))
}

/// The normalized analysis input [`cache_key`] hashes.
fn key_text(job: &AnalysisJob, engines: &EngineSelection, options: &AnalysisOptions) -> String {
    let mut text = String::new();
    let ts = &job.ts;
    let _ = write!(
        text,
        "vars:{:?};locs:{};",
        ts.var_names(),
        ts.num_locations()
    );
    for t in ts.transitions() {
        let _ = write!(text, "t:{}->{}:{};", t.from, t.to, t.formula);
    }
    if let JobInput::Invariants(invariants) = &job.input {
        for inv in invariants {
            let _ = write!(text, "inv:{inv};");
        }
    }
    let _ = write!(text, "engines:{engines};");
    let _ = write!(
        text,
        "opts:iters={},disjuncts={},inv={:?};",
        options.max_iterations_per_dim, options.max_eager_disjuncts, options.invariants
    );
    // The pre-optimizer rewrites the transition system the engines see, so an
    // optimized job and its raw twin must never share an entry (their stats
    // differ even when the verdicts agree), and any change to the pass
    // pipeline (`OPT_PIPELINE_VERSION`) invalidates optimized entries.
    match &job.provenance {
        Some(_) => {
            let _ = write!(text, "opt:{};", termite_ir::OPT_PIPELINE_VERSION);
        }
        None => {
            let _ = write!(text, "opt:off;");
        }
    }
    // Conditional termination changes what a verdict can be: the refinement
    // pipeline re-derives everything from the program CFG, so two different
    // programs can share a cut-point transition system and one-shot
    // invariants (e.g. an entry havoc is invisible to both) yet earn
    // different preconditions. Program-carrying jobs therefore key on the
    // program itself, never just on its transition system.
    match job.program() {
        // Everything except the name (cache hits are re-labelled with the
        // requesting job's name, so the key must stay name-independent).
        Some(program) => {
            let _ = write!(
                text,
                "refine:vars={:?},init={:?},body={:?},budget={};",
                program.vars, program.init, program.body, options.max_refinements
            );
        }
        None => {
            let _ = write!(text, "refine:none,budget={};", options.max_refinements);
        }
    }
    text
}

/// Hit/miss counters of one cache (monotonic, shared across threads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a stored report.
    pub hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Reports inserted.
    pub stores: usize,
    /// Entries dropped by the size budget (least-recently-used first).
    pub evictions: usize,
}

/// One stored report, kept encoded: its report JSON, exactly the bytes a
/// save writes for it, decoded again on every hit.
///
/// Every entry repeats the key of each stats row, about half its text, so
/// `packed` holds each `"<name>":` of a [`STAT_FIELDS`] row as one control
/// character (row `i` as `i + 1`, for the first 31 rows). The encoder
/// escapes every control character inside strings and writes none outside
/// them, so a code never stands for anything else, and
/// [`text`](CacheEntry::text) restores the exact text.
struct CacheEntry {
    packed: Box<str>,
    /// Logical timestamp of the last lookup or store that touched this
    /// entry; the eviction loop drops the smallest first.
    last_used: u64,
}

/// The stats key a packed code stands for (see [`CacheEntry`]).
fn packed_key(code: char) -> Option<&'static str> {
    let row = (code as usize).checked_sub(1).filter(|&row| row < 31)?;
    STAT_FIELDS.get(row).map(|field| field.name)
}

impl CacheEntry {
    /// Packs encoded report `text` (see [`CacheEntry`]).
    fn new(text: &str, last_used: u64) -> CacheEntry {
        debug_assert!(!text.bytes().any(|b| b < 0x20), "raw control character");
        let mut packed = String::with_capacity(text.len());
        let mut rest = text;
        while let Some(at) = rest.find('"') {
            packed.push_str(&rest[..at]);
            rest = &rest[at + 1..];
            let row = STAT_FIELDS.iter().take(31).position(|field| {
                (rest.strip_prefix(field.name)).is_some_and(|tail| tail.starts_with("\":"))
            });
            match row {
                Some(row) => {
                    packed.push(char::from(row as u8 + 1));
                    rest = &rest[STAT_FIELDS[row].name.len() + 2..];
                }
                None => packed.push('"'),
            }
        }
        packed.push_str(rest);
        // A fresh allocation of the exact size: shrinking `packed` in place
        // would leave its unused capacity behind as a heap hole per entry.
        CacheEntry {
            packed: Box::from(packed.as_str()),
            last_used,
        }
    }

    /// The report text: the packed keys spelled out again.
    fn text(&self) -> String {
        let mut text = String::with_capacity(self.text_len());
        for c in self.packed.chars() {
            match packed_key(c) {
                Some(name) => {
                    text.push('"');
                    text.push_str(name);
                    text.push_str("\":");
                }
                None => text.push(c),
            }
        }
        text
    }

    /// Length of [`text`](CacheEntry::text), without building it.
    fn text_len(&self) -> usize {
        (self.packed.chars())
            .map(|c| packed_key(c).map_or(c.len_utf8(), |name| name.len() + 3))
            .sum()
    }

    /// Exact number of bytes the entry contributes to the on-disk document
    /// (`"key":<report json>`, i.e. the quoted key, the colon, and the
    /// report), so [`ResultCache::serialized_bytes`] is O(1) in the number
    /// of entries instead of a full serialization per probe.
    fn bytes(&self, key: &str) -> usize {
        key.len() + "\"\":".len() + self.text_len()
    }
}

/// Map plus the running sum of every entry's serialized footprint.
#[derive(Default)]
struct CacheMap {
    entries: HashMap<String, CacheEntry>,
    payload_bytes: usize,
    /// Monotonic counter handing out `last_used` stamps.
    tick: u64,
}

impl CacheMap {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Inserts (or replaces) an entry, keeping `payload_bytes` in step.
    fn insert(&mut self, key: String, text: &str) {
        let tick = self.next_tick();
        let entry = CacheEntry::new(text, tick);
        self.payload_bytes += entry.bytes(&key);
        if let Some(old) = self.entries.insert(key.clone(), entry) {
            self.payload_bytes -= old.bytes(&key);
        }
    }

    /// Serialized document size, computed under the lock the caller already
    /// holds (the public [`ResultCache::serialized_bytes`] takes the lock
    /// itself and must not be called from the store path).
    fn serialized_bytes(&self) -> usize {
        ENVELOPE_BYTES + self.payload_bytes + self.entries.len().saturating_sub(1)
    }
}

/// Serialized size of the document envelope around the entries:
/// `{"entries":{` + `},"version":3}` (the `Json::Object` is a `BTreeMap`, so
/// `entries` always prints before `version`, and the integral version prints
/// without a fraction). Pinned against the real serializer by a test.
const ENVELOPE_BYTES: usize = r#"{"entries":{"#.len() + r#"},"version":3}"#.len();

/// The report in its stored form: the cache codec's JSON text.
fn encode(report: &TerminationReport) -> Box<str> {
    report_to_json(report).to_string().into_boxed_str()
}

/// One cache document from `(key, report text)` pairs in key order — the
/// order a `Json::Object` prints, so the result is what serializing the
/// decoded entries would give.
fn document<'a>(entries: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    let mut out = String::from(r#"{"entries":{"#);
    for (i, (key, text)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{text}", Json::String(key.to_string()));
    }
    let _ = write!(out, r#"}},"version":{}}}"#, Json::Number(FORMAT_VERSION));
    out
}

/// Thread-safe content-addressed store of [`TerminationReport`]s.
#[derive(Default)]
pub struct ResultCache {
    map: Mutex<CacheMap>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    stores: AtomicUsize,
    evictions: AtomicUsize,
    /// Serialized-size budget; `None` means unbounded (the default).
    max_bytes: Option<usize>,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Caps the cache's serialized size: whenever a store pushes
    /// [`serialized_bytes`](Self::serialized_bytes) past the budget, the
    /// least-recently-used entries (lookups count as use) are dropped until
    /// it fits. The entry just stored is never evicted — a budget smaller
    /// than a single report degrades to caching exactly one entry rather
    /// than silently caching nothing. `None` removes the cap.
    pub fn with_max_bytes(mut self, max_bytes: Option<usize>) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// Looks up a key, counting a hit or a miss. A hit freshens the entry's
    /// LRU stamp and decodes the stored text (outside the lock).
    pub fn lookup(&self, key: &str) -> Option<TerminationReport> {
        let mut map = lock(&self.map);
        let tick = map.next_tick();
        let text = map.entries.get_mut(key).map(|e| {
            e.last_used = tick;
            e.text()
        });
        drop(map);
        let found = text.map(|text| {
            let json = Json::parse(&text).expect("a stored entry is valid JSON");
            report_from_json(&json).expect("a stored entry decodes")
        });
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a report under a key, then enforces the size budget (if one is
    /// set) by evicting least-recently-used entries. The report is encoded
    /// here, once per store; its length is the entry's footprint, so size
    /// probes stay O(1).
    pub fn store(&self, key: String, report: TerminationReport) {
        let text = encode(&report);
        let mut map = lock(&self.map);
        map.insert(key.clone(), &text);
        let mut evicted = 0usize;
        if let Some(budget) = self.max_bytes {
            while map.serialized_bytes() > budget && map.entries.len() > 1 {
                let victim = map
                    .entries
                    .iter()
                    .filter(|(k, _)| **k != key)
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone());
                let Some(victim) = victim else { break };
                if let Some(old) = map.entries.remove(&victim) {
                    map.payload_bytes -= old.bytes(&victim);
                    evicted += 1;
                }
            }
        }
        drop(map);
        self.stores.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        lock(&self.map).entries.len()
    }

    /// `true` when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss/store counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Loads a cache previously written by [`save`](Self::save). A missing
    /// file yields an empty cache; a malformed or version-mismatched file is
    /// an error (rather than silently serving wrong verdicts).
    pub fn load(path: &Path) -> Result<Self, String> {
        if !path.exists() {
            return Ok(ResultCache::new());
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("parse {path:?}: {e}"))?;
        let version = doc
            .get("version")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path:?}: missing cache format version"))?;
        if !(OLDEST_READABLE_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(format!(
                "{path:?}: unsupported cache format version {version}"
            ));
        }
        let cache = ResultCache::new();
        let Some(Json::Object(entries)) = doc.get("entries") else {
            return Err(format!("{path:?}: missing `entries` object"));
        };
        let mut map = lock(&cache.map);
        for (key, value) in entries {
            // Entries are stored in the *current* schema: a migrated v1 entry
            // holds (and accounts for) what a re-save would write, not the
            // bytes it occupied on disk.
            map.insert(key.clone(), &encode(&report_from_json(value)?));
        }
        drop(map);
        Ok(cache)
    }

    /// [`load`](Self::load) for long-lived consumers: a corrupt or
    /// unreadable cache file is *quarantined* — renamed to `<path>.corrupt`
    /// with a stderr warning — and an empty cache is returned, so the
    /// service starts degraded instead of dying on a torn write left by a
    /// crash. `load` itself stays strict: a batch run asked to use a
    /// specific cache file should fail loudly, not silently recompute.
    pub fn load_or_quarantine(path: &Path) -> Self {
        let error = match ResultCache::load(path) {
            Ok(cache) => return cache,
            Err(error) => error,
        };
        let mut quarantine = PathBuf::from(path.as_os_str().to_os_string());
        quarantine.as_mut_os_string().push(".corrupt");
        match std::fs::rename(path, &quarantine) {
            Ok(()) => eprintln!(
                "termite: cache {path:?} is unusable ({error}); quarantined to {quarantine:?}, \
                 starting with an empty cache"
            ),
            Err(rename_error) => eprintln!(
                "termite: cache {path:?} is unusable ({error}) and could not be quarantined \
                 ({rename_error}); starting with an empty cache"
            ),
        }
        ResultCache::new()
    }

    /// Size of the cache in its serialized (on-disk JSON) form, in bytes —
    /// the sizing signal for the ROADMAP's "cache eviction & sizing" work,
    /// the number the service logs at shutdown, and (since the live stats
    /// surface) a field of every `{"stats": true}` snapshot. Computed in
    /// O(1) from per-entry footprints maintained at store/load time — a
    /// probe never re-serializes the cache. Pinned byte-exact against the
    /// real serializer by a test.
    pub fn serialized_bytes(&self) -> usize {
        lock(&self.map).serialized_bytes()
    }

    /// One-line human summary (entries, hit/miss counters, serialized size),
    /// logged by long-lived consumers at shutdown. `serialized_bytes` is the
    /// figure [`save`](Self::save) returns — pass it through rather than
    /// re-measuring with [`serialized_bytes`](Self::serialized_bytes) when a
    /// save just happened.
    pub fn summary(&self, serialized_bytes: usize) -> String {
        let stats = self.stats();
        format!(
            "{} entries, {} hits, {} misses, {} evicted, {} bytes serialized",
            self.len(),
            stats.hits,
            stats.misses,
            stats.evictions,
            serialized_bytes
        )
    }

    /// Persists every entry as JSON (atomically: write-then-rename) and
    /// returns the number of bytes written. When no usable file exists at
    /// `path` this is exactly the
    /// [`serialized_bytes`](Self::serialized_bytes) figure, measured for
    /// free on the document just built.
    ///
    /// A save **merges** with the file already at `path`: entries on disk
    /// but not in memory (evicted under the byte budget, or written by an
    /// earlier run with a different workload) are preserved, migrated to
    /// the current schema on the way through. The merge is abandoned — the
    /// file is **compacted** to just the live entries — when the merged
    /// document would exceed twice the live footprint: past that point the
    /// preserved tail is mostly dead weight, and carrying it forward on
    /// every save would grow the file without bound.
    pub fn save(&self, path: &Path) -> Result<usize, String> {
        let disk = disk_entries(path).unwrap_or_default();
        let map = lock(&self.map);
        let live_bytes = map.serialized_bytes();
        let texts: Vec<(&str, String)> = (map.entries.iter())
            .map(|(k, e)| (k.as_str(), e.text()))
            .collect();
        let live: BTreeMap<&str, &str> = texts.iter().map(|(k, t)| (*k, t.as_str())).collect();
        // Disk entries the live cache does not supersede, migrated to the
        // current schema. Malformed ones are dropped rather than failing the
        // save: preserving stale entries is best-effort.
        let stale: Vec<(&str, Box<str>)> = disk
            .iter()
            .filter(|(key, _)| !live.contains_key(key.as_str()))
            .filter_map(|(key, value)| Some((key.as_str(), encode(&report_from_json(value).ok()?))))
            .collect();
        let merged = (!stale.is_empty())
            .then(|| {
                let mut all = live.clone();
                all.extend(stale.iter().map(|(k, t)| (*k, &**t)));
                document(all)
            })
            .filter(|merged| merged.len() <= 2 * live_bytes);
        let text = merged.unwrap_or_else(|| document(live));
        drop(map);
        let bytes = text.len();
        // The `cache_torn_write` fault simulates a crash mid-save: half the
        // document lands *directly at the destination*, skipping the
        // write-then-rename discipline — exactly the corruption the rename
        // exists to prevent and `load_or_quarantine` exists to survive.
        // (Byte slicing is safe: the torn file is meant to be garbage.)
        if crate::faults::cache_torn_write(&path.to_string_lossy()) {
            let torn = &text.as_bytes()[..bytes / 2];
            std::fs::write(path, torn).map_err(|e| format!("write {path:?}: {e}"))?;
            return Ok(bytes / 2);
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text).map_err(|e| format!("write {tmp:?}: {e}"))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("rename to {path:?}: {e}"))?;
        Ok(bytes)
    }
}

/// The entries of the cache document at `path`, when there is a readable
/// one of a version this build can migrate.
fn disk_entries(path: &Path) -> Option<BTreeMap<String, Json>> {
    let disk = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let version = disk.get("version").and_then(Json::as_f64)?;
    if !(OLDEST_READABLE_VERSION..=FORMAT_VERSION).contains(&version) {
        return None;
    }
    match disk {
        Json::Object(mut top) => match top.remove("entries")? {
            Json::Object(entries) => Some(entries),
            _ => None,
        },
        _ => None,
    }
}

/// Serializes a polyhedron as its constraint list.
pub fn polyhedron_to_json(p: &Polyhedron) -> Json {
    Json::object([
        ("dim", Json::Number(p.dim() as f64)),
        (
            "constraints",
            Json::Array(
                p.constraints()
                    .iter()
                    .map(|c| {
                        Json::object([
                            (
                                "coeffs",
                                Json::Array(
                                    c.coeffs
                                        .iter()
                                        .map(|v| Json::String(v.to_string()))
                                        .collect(),
                                ),
                            ),
                            ("rhs", Json::String(c.rhs.to_string())),
                            (
                                "kind",
                                Json::String(
                                    match c.kind {
                                        ConstraintKind::GreaterEq => "ge",
                                        ConstraintKind::Equality => "eq",
                                    }
                                    .to_string(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Deserializes a polyhedron written by [`polyhedron_to_json`].
pub fn polyhedron_from_json(json: &Json) -> Result<Polyhedron, String> {
    let dim = json
        .get("dim")
        .and_then(Json::as_usize)
        .ok_or("precondition without `dim`")?;
    let constraints = json
        .get("constraints")
        .and_then(Json::as_array)
        .ok_or("precondition without `constraints`")?
        .iter()
        .map(|c| {
            let coeffs = c
                .get("coeffs")
                .and_then(Json::as_array)
                .ok_or("constraint without coeffs")?
                .iter()
                .map(rational)
                .collect::<Result<Vec<_>, _>>()?;
            let rhs = rational(c.get("rhs").ok_or("constraint without rhs")?)?;
            let coeffs = QVector::from_vec(coeffs);
            match c.get("kind").and_then(Json::as_str) {
                Some("ge") => Ok(Constraint::ge(coeffs, rhs)),
                Some("eq") => Ok(Constraint::eq(coeffs, rhs)),
                other => Err(format!("unknown constraint kind {other:?}")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Polyhedron::from_constraints(dim, constraints))
}

/// The canonical short name of a verdict, shared by the cache schema, the
/// `suite --json` reports, `bench-diff` and the CI verdict gate.
pub fn verdict_name(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Terminates(_) => "terminates",
        Verdict::TerminatesIf { .. } => "conditional",
        Verdict::Unknown { .. } => "unknown",
    }
}

/// Orders verdict names on the `Terminates ⊒ TerminatesIf ⊒ Unknown`
/// lattice; unknown strings rank lowest (conservative).
pub fn verdict_rank(name: &str) -> u8 {
    match name {
        "terminates" => 2,
        "conditional" => 1,
        _ => 0,
    }
}

/// Serializes a ranking function (shared by the report-level `ranking`
/// field and the per-disjunct rankings of a conditional verdict).
fn ranking_to_json(rf: &RankingFunction) -> Json {
    let components: Vec<Json> = (0..rf.dimension())
        .map(|d| {
            Json::Array(
                (0..rf.num_locations())
                    .map(|k| {
                        let (lambda, lambda0) = rf.component(d, k);
                        Json::object([
                            (
                                "lambda",
                                Json::Array(
                                    lambda.iter().map(|c| Json::String(c.to_string())).collect(),
                                ),
                            ),
                            ("lambda0", Json::String(lambda0.to_string())),
                        ])
                    })
                    .collect(),
            )
        })
        .collect();
    Json::object([
        ("num_vars", Json::Number(rf.num_vars() as f64)),
        (
            "var_names",
            Json::Array(
                rf.var_names()
                    .iter()
                    .map(|n| Json::String(n.clone()))
                    .collect(),
            ),
        ),
        ("components", Json::Array(components)),
    ])
}

/// Serializes a report (verdict, ranking function, disjunctive
/// preconditions, statistics).
pub fn report_to_json(report: &TerminationReport) -> Json {
    let ranking = match report.ranking_function() {
        None => Json::Null,
        Some(rf) => ranking_to_json(rf),
    };
    let preconditions = match &report.verdict {
        Verdict::TerminatesIf { disjuncts, .. } => Json::Array(
            disjuncts
                .iter()
                .map(|d| {
                    Json::object([
                        ("clause", polyhedron_to_json(&d.clause)),
                        (
                            "ranking",
                            match &d.ranking {
                                Some(rf) => ranking_to_json(rf),
                                None => Json::Null,
                            },
                        ),
                    ])
                })
                .collect(),
        ),
        _ => Json::Null,
    };
    let unknown_reason = match &report.verdict {
        Verdict::Unknown { reason } => Json::String(
            match reason {
                UnknownReason::NoRankingFunction => "no-ranking-function",
                UnknownReason::Cancelled => "cancelled",
                UnknownReason::ResourceBudget => "resource-budget",
                UnknownReason::EngineFailure => "engine-failure",
            }
            .to_string(),
        ),
        _ => Json::Null,
    };
    Json::object([
        ("program", Json::String(report.program.clone())),
        (
            "verdict",
            Json::String(verdict_name(&report.verdict).to_string()),
        ),
        ("terminating", Json::Bool(report.proved())),
        ("unknown_reason", unknown_reason),
        ("preconditions", preconditions),
        ("ranking", ranking),
        ("stats", Json::object(stat_entries(&report.stats))),
    ])
}

/// Encodes stats row by row ([`STAT_FIELDS`]) as the `(name, value)`
/// entries of a report's `stats` object and of flat `suite --json` records.
pub fn stat_entries(stats: &SynthesisStats) -> Vec<(&'static str, Json)> {
    STAT_FIELDS
        .iter()
        .map(|field| {
            let value = match (field.get)(stats) {
                StatValue::Number(n) => Json::Number(n),
                StatValue::Label(label) => label.map_or(Json::Null, Json::String),
            };
            (field.name, value)
        })
        .collect()
}

/// Decodes the stats rows of a JSON object (a report's `stats`, or a flat
/// record): one per [`STAT_FIELDS`] row, `None` where the writer predates
/// the stat — never a made-up 0.
pub fn stat_rows_from_json(json: &Json) -> Vec<Option<StatValue>> {
    STAT_FIELDS
        .iter()
        .map(|field| match (field.kind, json.get(field.name)?) {
            (StatKind::Label, label) => Some(StatValue::Label(label.as_str().map(String::from))),
            (_, value) => value.as_f64().map(StatValue::Number),
        })
        .collect()
}

fn rational(json: &Json) -> Result<Rational, String> {
    json.as_str()
        .ok_or_else(|| "expected a rational string".to_string())?
        .parse::<Rational>()
        .map_err(|e| format!("bad rational: {e:?}"))
}

/// Deserializes a non-null ranking function written by [`ranking_to_json`].
fn ranking_from_json(rf: &Json) -> Result<RankingFunction, String> {
    let num_vars = rf
        .get("num_vars")
        .and_then(Json::as_usize)
        .ok_or("missing num_vars")?;
    let var_names = rf
        .get("var_names")
        .and_then(Json::as_array)
        .ok_or("missing var_names")?
        .iter()
        .map(|n| n.as_str().map(String::from).ok_or("bad var name"))
        .collect::<Result<Vec<_>, _>>()?;
    let components = rf
        .get("components")
        .and_then(Json::as_array)
        .ok_or("missing components")?
        .iter()
        .map(|per_loc| {
            per_loc
                .as_array()
                .ok_or_else(|| "bad component".to_string())?
                .iter()
                .map(|c| {
                    let lambda = c
                        .get("lambda")
                        .and_then(Json::as_array)
                        .ok_or("missing lambda")?
                        .iter()
                        .map(rational)
                        .collect::<Result<Vec<_>, _>>()?;
                    let lambda0 = rational(c.get("lambda0").ok_or("missing lambda0")?)?;
                    Ok::<_, String>((QVector::from_vec(lambda), lambda0))
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(RankingFunction::new(num_vars, var_names, components))
}

/// Deserializes the disjuncts of a conditional verdict: the version-3
/// `preconditions` array, or — for version-2 records — the single
/// `precondition` polyhedron, migrated to a one-disjunct DNF.
fn preconditions_from_json(json: &Json) -> Result<Vec<Precondition>, String> {
    if let Some(array) = json.get("preconditions").and_then(Json::as_array) {
        let disjuncts = array
            .iter()
            .map(|d| {
                let clause =
                    polyhedron_from_json(d.get("clause").ok_or("precondition without `clause`")?)?;
                let ranking = match d.get("ranking") {
                    None | Some(Json::Null) => None,
                    Some(rf) => Some(ranking_from_json(rf)?),
                };
                Ok::<_, String>(Precondition { clause, ranking })
            })
            .collect::<Result<Vec<_>, _>>()?;
        if disjuncts.is_empty() {
            return Err("`conditional` verdict with an empty `preconditions` array".to_string());
        }
        return Ok(disjuncts);
    }
    // v2 migration: a single conjunctive precondition becomes the sole
    // disjunct (its ranking is the report-level one, so it carries none).
    let clause = polyhedron_from_json(
        json.get("precondition")
            .ok_or("`conditional` verdict without `preconditions`")?,
    )?;
    Ok(vec![Precondition::new(clause)])
}

/// Deserializes a report written by [`report_to_json`], migrating
/// version-1 records (which had no `verdict` field) on the fly.
pub fn report_from_json(json: &Json) -> Result<TerminationReport, String> {
    let program = json
        .get("program")
        .and_then(Json::as_str)
        .ok_or("missing `program`")?
        .to_string();
    let ranking = match json.get("ranking") {
        None | Some(Json::Null) => None,
        Some(rf) => Some(ranking_from_json(rf)?),
    };
    let unknown_reason = || match json.get("unknown_reason").and_then(Json::as_str) {
        Some("cancelled") => UnknownReason::Cancelled,
        Some("resource-budget") => UnknownReason::ResourceBudget,
        Some("engine-failure") => UnknownReason::EngineFailure,
        // v1 records (and v2 "no-ranking-function") land here.
        _ => UnknownReason::NoRankingFunction,
    };
    let verdict = match json.get("verdict").and_then(Json::as_str) {
        // v2 record: the verdict field is authoritative.
        Some("terminates") => {
            Verdict::Terminates(ranking.ok_or("`terminates` verdict without `ranking`")?)
        }
        Some("conditional") => Verdict::TerminatesIf {
            disjuncts: preconditions_from_json(json)?,
            ranking: ranking.ok_or("`conditional` verdict without `ranking`")?,
        },
        Some("unknown") => Verdict::Unknown {
            reason: unknown_reason(),
        },
        Some(other) => return Err(format!("unknown verdict `{other}`")),
        // v1 migration: the presence of a ranking function was the verdict.
        None => match ranking {
            Some(rf) => Verdict::Terminates(rf),
            None => Verdict::unknown(UnknownReason::NoRankingFunction),
        },
    };
    // Optional stats the writer predates stay at their zero default (a
    // cache entry needs a value); a missing required one is an error.
    let mut stats = SynthesisStats::default();
    let stats_json = json.get("stats").ok_or("missing `stats`")?;
    for (field, value) in STAT_FIELDS.iter().zip(stat_rows_from_json(stats_json)) {
        match value {
            Some(value) => (field.set)(&mut stats, value),
            None if field.optional => {}
            None => return Err(format!("missing stats field `{}`", field.name)),
        }
    }
    Ok(TerminationReport {
        program,
        verdict,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::run_selection;
    use termite_core::Engine;
    use termite_invariants::InvariantOptions;
    use termite_ir::{parse_named_program, parse_program};

    fn job(src: &str) -> AnalysisJob {
        let p = parse_program(src).unwrap();
        AnalysisJob::from_program(&p, &InvariantOptions::default())
    }

    /// Some report of the job: its Termite analysis under default options.
    fn analysed(j: &AnalysisJob) -> TerminationReport {
        let sel = EngineSelection::single(Engine::Termite);
        run_selection(j, &sel, &AnalysisOptions::default()).report
    }

    #[test]
    fn key_ignores_program_name_but_not_content() {
        let opts = AnalysisOptions::default();
        let sel = EngineSelection::single(Engine::Termite);
        let a = AnalysisJob::from_program(
            &parse_named_program("var x; while (x > 0) { x = x - 1; }", "alpha").unwrap(),
            &InvariantOptions::default(),
        );
        let b = AnalysisJob::from_program(
            &parse_named_program("var x; while (x > 0) { x = x - 1; }", "beta").unwrap(),
            &InvariantOptions::default(),
        );
        let c = job("var x; while (x > 0) { x = x - 2; }");
        assert_eq!(cache_key(&a, &sel, &opts), cache_key(&b, &sel, &opts));
        assert_ne!(cache_key(&a, &sel, &opts), cache_key(&c, &sel, &opts));
        // Different engine configuration → different key.
        let other = EngineSelection::single(Engine::Eager);
        assert_ne!(cache_key(&a, &sel, &opts), cache_key(&a, &other, &opts));
    }

    #[test]
    fn key_separates_programs_sharing_a_transition_system() {
        // An entry havoc is invisible to the cut-point transition system and
        // (from the unconstrained entry) to the forward invariants, but the
        // refinement pipeline treats the two programs very differently: the
        // demonic havoc co-transfer blocks any precondition on `y`. The keys
        // must not collide, or the havocked program would be served the
        // other's conditional verdict.
        let opts = AnalysisOptions::default();
        let sel = EngineSelection::single(Engine::Termite);
        let plain = job("var x, y; while (x > 0) { x = x + y; }");
        let havocked = job("var x, y; y = nondet(); while (x > 0) { x = x + y; }");
        assert_eq!(
            plain.ts.transitions().len(),
            havocked.ts.transitions().len()
        );
        assert_ne!(
            cache_key(&plain, &sel, &opts),
            cache_key(&havocked, &sel, &opts)
        );
    }

    #[test]
    fn string_rank_agrees_with_core_verdict_rank() {
        // `bench-diff` and the CI verdict gate order verdict *names* with
        // `verdict_rank`; `termite_core::Verdict::rank` orders the values.
        // The two lattices must never drift apart.
        use termite_core::{RankingFunction, UnknownReason, Verdict};
        let ranking = RankingFunction::new(1, vec!["x".into()], Vec::new());
        let verdicts = [
            Verdict::Terminates(ranking.clone()),
            Verdict::terminates_if(termite_polyhedra::Polyhedron::universe(1), ranking),
            Verdict::unknown(UnknownReason::NoRankingFunction),
        ];
        for v in &verdicts {
            assert_eq!(verdict_rank(verdict_name(v)), v.rank(), "{v:?}");
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = ResultCache::new();
        let j = job("var x; assume x >= 0; while (x > 0) { x = x - 1; }");
        let report = analysed(&j);
        let key = cache_key(
            &j,
            &EngineSelection::single(Engine::Termite),
            &AnalysisOptions::default(),
        );
        assert!(cache.lookup(&key).is_none());
        cache.store(key.clone(), report.clone());
        assert_eq!(cache.lookup(&key), Some(report));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                stores: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn report_roundtrips_through_json_identically() {
        for src in [
            "var x; while (x > 0) { x = x - 1; }",
            "var x; assume x >= 1; while (x > 0) { x = x + 1; }",
        ] {
            let j = job(src);
            let report = analysed(&j);
            let json = report_to_json(&report);
            let text = json.to_string();
            let back = report_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, report, "JSON roundtrip must be lossless for {src}");
        }
    }

    /// Stats rows the schema no longer has: older reports still carry them,
    /// the decoder ignores them and the encoder no longer writes them.
    const RETIRED_STATS: [&str; 2] = ["basis_reuses", "farkas_cache_hits"];

    #[test]
    fn committed_bench_reports_round_trip_byte_identically() {
        // Every embedded report of the newest trend file goes through the
        // schema-driven codec and comes back as the exact bytes on disk,
        // less exactly the retired rows. The optional rows the file predates
        // decode to their zero default and are written back as 0; they are
        // checked, then set aside.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_0009.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = Json::parse(&text).unwrap();
        let benchmarks = doc.get("benchmarks").and_then(Json::as_array).unwrap();
        assert!(!benchmarks.is_empty());
        for bench in benchmarks {
            let embedded = bench.get("report").unwrap();
            let on_disk_text = embedded.to_string();
            assert!(
                text.contains(&on_disk_text),
                "{on_disk_text} is not in {path}"
            );
            let mut expected = embedded.clone();
            let Json::Object(expected_report) = &mut expected else {
                panic!("reports are objects");
            };
            let Some(Json::Object(on_disk)) = expected_report.get_mut("stats") else {
                panic!("reports carry a `stats` object");
            };
            for name in RETIRED_STATS {
                assert!(on_disk.remove(name).is_some(), "{name} is not on disk");
            }
            let mut encoded = report_to_json(&report_from_json(embedded).unwrap());
            let Json::Object(report) = &mut encoded else {
                panic!("encoded report is not an object");
            };
            let Some(Json::Object(stats)) = report.get_mut("stats") else {
                panic!("encoded report without stats");
            };
            for field in STAT_FIELDS.iter().filter(|f| !on_disk.contains_key(f.name)) {
                assert!(field.optional, "{} is required", field.name);
                assert_eq!(stats.remove(field.name), Some(Json::Number(0.0)));
            }
            assert_eq!(encoded.to_string(), expected.to_string());
        }
    }

    #[test]
    fn stat_rows_keep_absent_stats_unknown() {
        let json =
            Json::parse(r#"{"iterations": 2, "engine_won": null, "lp_pivots": "x"}"#).unwrap();
        let rows = stat_rows_from_json(&json);
        for (field, value) in STAT_FIELDS.iter().zip(&rows) {
            let expected = match field.name {
                "iterations" => Some(StatValue::Number(2.0)),
                "engine_won" => Some(StatValue::Label(None)),
                _ => None,
            };
            assert_eq!(value, &expected, "{}", field.name);
        }
        // The cache codec still insists on the required rows.
        let report = Json::object([("program", Json::String("p".into())), ("stats", json)]);
        let missing = report_from_json(&report).unwrap_err();
        assert!(missing.contains("lp_instances"), "{missing}");
    }

    #[test]
    fn cache_persists_to_disk_and_back() {
        let dir = std::env::temp_dir().join("termite-driver-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let _ = std::fs::remove_file(&path);

        let cache = ResultCache::new();
        let j = job("var x, y; assume x >= 0 && y >= 0; while (x > 0 && y > 0) { choice { x = x - 1; } or { y = y - 1; } }");
        let report = analysed(&j);
        let key = cache_key(
            &j,
            &EngineSelection::single(Engine::Termite),
            &AnalysisOptions::default(),
        );
        cache.store(key.clone(), report.clone());
        cache.save(&path).unwrap();

        let reloaded = ResultCache::load(&path).unwrap();
        assert_eq!(reloaded.lookup(&key), Some(report));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn conditional_report_roundtrips_with_precondition() {
        let p = parse_program("var x, y; while (x > 0) { x = x + y; }").unwrap();
        let report = termite_core::prove_termination(&p, &AnalysisOptions::default());
        assert!(
            report.precondition().is_some(),
            "x += y must get a conditional verdict"
        );
        let back =
            report_from_json(&Json::parse(&report_to_json(&report).to_string()).unwrap()).unwrap();
        assert_eq!(back, report, "conditional verdicts must round-trip");
    }

    #[test]
    fn version_1_cache_files_are_migrated_on_read() {
        // A hand-written v1 file: no `verdict` field, the presence of
        // `ranking` is the verdict; stats lack `refinements`.
        let v1 = r#"{
          "version": 1,
          "entries": {
            "00000000000000aa": {
              "program": "old_proof",
              "terminating": true,
              "ranking": {
                "num_vars": 1,
                "var_names": ["x"],
                "components": [[{"lambda": ["1"], "lambda0": "0"}]]
              },
              "stats": {
                "iterations": 2, "lp_instances": 2, "lp_rows_avg": 1.0,
                "lp_cols_avg": 2.0, "lp_max_rows": 1, "lp_max_cols": 2,
                "smt_queries": 3, "counterexamples": 1, "dimension": 1,
                "synthesis_millis": 0.5
              }
            },
            "00000000000000bb": {
              "program": "old_unknown",
              "terminating": false,
              "ranking": null,
              "stats": {
                "iterations": 1, "lp_instances": 0, "lp_rows_avg": 0.0,
                "lp_cols_avg": 0.0, "lp_max_rows": 0, "lp_max_cols": 0,
                "smt_queries": 1, "counterexamples": 0, "dimension": 0,
                "synthesis_millis": 0.1
              }
            }
          }
        }"#;
        let path = std::env::temp_dir().join("termite-driver-v1-cache.json");
        std::fs::write(&path, v1).unwrap();
        let cache = ResultCache::load(&path).unwrap();
        assert_eq!(cache.len(), 2);
        let proof = cache.lookup("00000000000000aa").unwrap();
        assert!(matches!(proof.verdict, Verdict::Terminates(_)));
        assert_eq!(proof.stats.refinements, 0);
        let unknown = cache.lookup("00000000000000bb").unwrap();
        assert!(matches!(
            unknown.verdict,
            Verdict::Unknown {
                reason: UnknownReason::NoRankingFunction
            }
        ));
        // Re-persisting writes the current (v3) schema, which reloads too.
        cache.save(&path).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("version").and_then(Json::as_f64), Some(3.0));
        assert!(ResultCache::load(&path).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_2_conditional_entries_become_single_disjunct_dnfs() {
        // A hand-written v2 record: one conjunctive `precondition`, no
        // `preconditions` array.
        let v2 = r#"{
          "version": 2,
          "entries": {
            "00000000000000cc": {
              "program": "old_conditional",
              "verdict": "conditional",
              "terminating": true,
              "unknown_reason": null,
              "precondition": {
                "dim": 1,
                "constraints": [{"coeffs": ["-1"], "rhs": "0", "kind": "ge"}]
              },
              "ranking": {
                "num_vars": 1,
                "var_names": ["x"],
                "components": [[{"lambda": ["1"], "lambda0": "0"}]]
              },
              "stats": {
                "iterations": 2, "lp_instances": 2, "lp_rows_avg": 1.0,
                "lp_cols_avg": 2.0, "lp_max_rows": 1, "lp_max_cols": 2,
                "smt_queries": 3, "counterexamples": 1, "dimension": 1,
                "synthesis_millis": 0.5
              }
            }
          }
        }"#;
        let path = std::env::temp_dir().join("termite-driver-v2-cache.json");
        std::fs::write(&path, v2).unwrap();
        let cache = ResultCache::load(&path).unwrap();
        let report = cache.lookup("00000000000000cc").unwrap();
        let Verdict::TerminatesIf { disjuncts, .. } = &report.verdict else {
            panic!("v2 conditional must stay conditional, got {report:?}");
        };
        assert_eq!(disjuncts.len(), 1, "one conjunctive clause, one disjunct");
        assert!(
            disjuncts[0].ranking.is_none(),
            "the ranking stays top-level"
        );
        // Re-persisting writes the v3 `preconditions` array.
        cache.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"preconditions\""), "re-save must upgrade");
        assert!(!text.contains("\"precondition\":"), "legacy field is gone");
        let reread = ResultCache::load(&path).unwrap();
        assert_eq!(reread.lookup("00000000000000cc").unwrap(), report);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_merges_with_disk_and_compacts_when_stale_bytes_dominate() {
        let dir = std::env::temp_dir().join("termite-driver-cache-merge-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let _ = std::fs::remove_file(&path);

        let opts = AnalysisOptions::default();
        let sel = EngineSelection::single(Engine::Termite);
        let keyed = |src: &str| {
            let j = job(src);
            let report = analysed(&j);
            (cache_key(&j, &sel, &opts), report)
        };
        let (old_key, old_report) = keyed("var x; while (x > 0) { x = x - 1; }");
        let fresh = [
            keyed("var x; while (x > 2) { x = x - 2; }"),
            keyed("var x; while (x > 3) { x = x - 3; }"),
            keyed("var x, y; assume x >= 0 && y >= 0; while (x > 0 && y > 0) { choice { x = x - 1; } or { y = y - 1; } }"),
        ];

        // Seed the disk with one entry, then save a cache that does not
        // contain it: the merge must preserve the disk entry because the
        // union is well under twice the (three-entry) live footprint.
        let seed = ResultCache::new();
        seed.store(old_key.clone(), old_report.clone());
        seed.save(&path).unwrap();
        let live = ResultCache::new();
        for (k, r) in &fresh {
            live.store(k.clone(), r.clone());
        }
        live.save(&path).unwrap();
        let merged = ResultCache::load(&path).unwrap();
        assert_eq!(merged.len(), 4, "merge must preserve the stale entry");
        assert_eq!(merged.lookup(&old_key), Some(old_report.clone()));

        // Now save a single-entry cache over the four-entry file: the
        // union would exceed twice the live footprint, so the save
        // compacts to live-only.
        let small = ResultCache::new();
        small.store(old_key.clone(), old_report.clone());
        let written = small.save(&path).unwrap();
        assert_eq!(
            written,
            small.serialized_bytes(),
            "a compacted save writes exactly the live document"
        );
        let compacted = ResultCache::load(&path).unwrap();
        assert_eq!(compacted.len(), 1, "stale entries must be dropped");
        assert_eq!(compacted.lookup(&old_key), Some(old_report));

        // Byte-identical reload: re-saving what was just loaded must
        // reproduce the compacted file exactly.
        let first = std::fs::read_to_string(&path).unwrap();
        compacted.save(&path).unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        assert_eq!(first, second, "compacted file must round-trip by byte");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn incremental_serialized_bytes_matches_full_serialization() {
        let cache = ResultCache::new();
        // Empty cache: just the envelope.
        assert_eq!(
            cache.serialized_bytes(),
            cache.to_json().to_string().len(),
            "empty cache"
        );

        let opts = AnalysisOptions::default();
        let sel = EngineSelection::single(Engine::Termite);
        let sources = [
            "var x; while (x > 0) { x = x - 1; }",
            "var x; assume x >= 1; while (x > 0) { x = x + 1; }",
            "var x, y; assume x >= 0 && y >= 0; while (x > 0 && y > 0) { choice { x = x - 1; } or { y = y - 1; } }",
        ];
        for src in sources {
            let j = job(src);
            let report = analysed(&j);
            cache.store(cache_key(&j, &sel, &opts), report);
            assert_eq!(
                cache.serialized_bytes(),
                cache.to_json().to_string().len(),
                "after storing {src}"
            );
        }

        // Overwriting an existing key must subtract the old footprint.
        let j = job(sources[0]);
        let replacement = analysed(&job(sources[1]));
        cache.store(cache_key(&j, &sel, &opts), replacement);
        assert_eq!(
            cache.len(),
            sources.len(),
            "overwrite must not grow the map"
        );
        assert_eq!(
            cache.serialized_bytes(),
            cache.to_json().to_string().len(),
            "after overwriting an entry"
        );

        // A reloaded cache rebuilds the same footprint, and save() returns it.
        let path = std::env::temp_dir().join("termite-driver-incremental-bytes.json");
        let saved = cache.save(&path).unwrap();
        assert_eq!(saved, cache.serialized_bytes());
        let reloaded = ResultCache::load(&path).unwrap();
        assert_eq!(reloaded.serialized_bytes(), cache.serialized_bytes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refinement_aware_jobs_get_distinct_keys() {
        let opts = AnalysisOptions::default();
        let sel = EngineSelection::single(Engine::Termite);
        let with_program = job("var x; while (x > 0) { x = x - 1; }");
        let mut one_shot = with_program.clone();
        one_shot.input = JobInput::Invariants(termite_invariants::location_invariants(
            with_program.program().unwrap(),
            &opts.invariants,
        ));
        assert_ne!(
            cache_key(&with_program, &sel, &opts),
            cache_key(&one_shot, &sel, &opts),
            "pipeline-enabled jobs must not share entries with one-shot jobs"
        );
    }

    #[test]
    fn program_keys_without_invariants_partition_jobs_as_before() {
        // Program-carrying keys used to hash the job's forward invariants
        // too. Those are a function of the program, the invariant options
        // and the IR pipeline version, all still in the key, so dropping
        // them must merge no two analyses the old key kept apart.
        let opts = AnalysisOptions::default();
        let selections = [
            EngineSelection::full_portfolio(),
            EngineSelection::single(Engine::Termite),
        ];
        let mut keys = Vec::new();
        for optimize in [false, true] {
            for j in AnalysisJob::from_all_suites_with(optimize) {
                let invariants: String =
                    termite_invariants::location_invariants(j.program().unwrap(), &opts.invariants)
                        .iter()
                        .map(|inv| format!("inv:{inv};"))
                        .collect();
                for sel in &selections {
                    let old_text = key_text(&j, sel, &opts) + &invariants;
                    let old = format!("{:016x}", fnv1a(old_text.as_bytes()));
                    keys.push((j.name.clone(), cache_key(&j, sel, &opts), old));
                }
            }
        }
        assert_eq!(keys.len(), 62 * 2 * 2);
        let mut shared = 0;
        for (i, (name_a, new_a, old_a)) in keys.iter().enumerate() {
            for (name_b, new_b, old_b) in &keys[i + 1..] {
                assert_eq!(new_a == new_b, old_a == old_b, "{name_a} vs {name_b}");
                shared += usize::from(new_a == new_b);
            }
        }
        assert!(shared > 0, "some suite programs share their analysis input");
    }

    #[test]
    fn encoded_entries_are_lossless() {
        let cache = ResultCache::new();
        let sel = EngineSelection::single(Engine::Termite);
        let mut stored = Vec::new();
        for j in AnalysisJob::from_all_suites_with(true) {
            let report = run_selection(&j, &sel, &AnalysisOptions::default()).report;
            // One entry per program (content twins would share a real key).
            let key = format!("{:016x}", stored.len());
            cache.store(key.clone(), report.clone());
            assert_eq!(cache.lookup(&key).as_ref(), Some(&report), "{}", j.name);
            stored.push((key, report));
        }
        let document = cache.to_json().to_string();
        assert_eq!(cache.serialized_bytes(), document.len());

        let path = std::env::temp_dir().join("termite-driver-lossless-cache.json");
        assert_eq!(cache.save(&path).unwrap(), document.len());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), document);
        let reloaded = ResultCache::load(&path).unwrap();
        assert_eq!(reloaded.serialized_bytes(), document.len());
        for (key, report) in &stored {
            assert_eq!(reloaded.lookup(key).as_ref(), Some(report), "{key}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn packed_entries_restore_their_exact_text() {
        // A program name that spells a stats key, or holds a control
        // character, stays text: only real keys pack.
        let mut report = analysed(&job("var x; while (x > 0) { x = x - 1; }"));
        report.program = "p\"iterations\":\u{1}".into();
        let text = encode(&report);
        let entry = CacheEntry::new(&text, 0);
        assert_eq!(entry.text(), &*text);
        assert_eq!(entry.text_len(), text.len());
        // Each packed `"<name>":` saves `name.len() + 2` bytes, and every
        // packable stats row is written (so packed) at least once. The
        // escaped name in the program field is not a key and saves nothing.
        let saved: usize = (STAT_FIELDS.iter().take(31))
            .map(|field| {
                let written = text.matches(&format!("\"{}\":", field.name)).count();
                assert!(written >= 1, "stats row {} not written", field.name);
                written * (field.name.len() + 2)
            })
            .sum();
        assert_eq!(entry.packed.len(), text.len() - saved);
    }

    #[test]
    fn missing_file_loads_empty_and_garbage_errors() {
        let missing = std::env::temp_dir().join("termite-driver-no-such-cache.json");
        let _ = std::fs::remove_file(&missing);
        assert!(ResultCache::load(&missing).unwrap().is_empty());

        let garbage = std::env::temp_dir().join("termite-driver-garbage-cache.json");
        std::fs::write(&garbage, "{\"version\": 99}").unwrap();
        assert!(ResultCache::load(&garbage).is_err());
        let _ = std::fs::remove_file(&garbage);
    }

    #[test]
    fn corrupt_cache_is_quarantined_not_fatal() {
        let path = std::env::temp_dir().join("termite-driver-quarantine-cache.json");
        let quarantine = std::env::temp_dir().join("termite-driver-quarantine-cache.json.corrupt");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantine);

        // A healthy file survives load_or_quarantine untouched.
        ResultCache::new().save(&path).unwrap();
        assert!(ResultCache::load_or_quarantine(&path).is_empty());
        assert!(path.exists());
        assert!(!quarantine.exists());

        // A torn file is moved aside and an empty cache comes back.
        std::fs::write(&path, "{\"version\": 2, \"entri").unwrap();
        let cache = ResultCache::load_or_quarantine(&path);
        assert!(cache.is_empty());
        assert!(!path.exists(), "the corrupt file must be moved away");
        assert!(quarantine.exists(), "the corrupt file must be preserved");

        // With the corruption quarantined, the path is usable again.
        cache.save(&path).unwrap();
        assert!(ResultCache::load(&path).is_ok());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantine);
    }

    #[test]
    fn torn_write_fault_produces_a_file_quarantine_recovers_from() {
        let path = std::env::temp_dir().join("termite-driver-torn-write-cache.json");
        let _ = std::fs::remove_file(&path);
        let quarantine = std::env::temp_dir().join("termite-driver-torn-write-cache.json.corrupt");
        let _ = std::fs::remove_file(&quarantine);

        let cache = ResultCache::new();
        let j = job("var x; while (x > 0) { x = x - 1; }");
        let report = analysed(&j);
        cache.store("00000000000000cc".to_string(), report);
        let full_bytes = cache.serialized_bytes();

        {
            // Path-scoped: a concurrently running test saving its own cache
            // file must not consume this point.
            let _faults = crate::faults::arm("cache_torn_write=torn-write-cache").unwrap();
            let written = cache.save(&path).unwrap();
            assert_eq!(written, full_bytes / 2, "the save must be truncated");
        }
        assert!(
            ResultCache::load(&path).is_err(),
            "a torn file must not parse"
        );
        assert!(ResultCache::load_or_quarantine(&path).is_empty());
        assert!(quarantine.exists());

        // Disarmed, the same save is atomic again and round-trips.
        assert_eq!(cache.save(&path).unwrap(), full_bytes);
        assert_eq!(ResultCache::load(&path).unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantine);
    }

    #[test]
    fn optimized_and_raw_jobs_never_share_a_key() {
        // Flipping the optimize switch must miss: the engines see different
        // transition systems and the stats differ even when verdicts agree.
        let opts = AnalysisOptions::default();
        let sel = EngineSelection::single(Engine::Termite);
        let src = "var x, d; assume x >= 0; while (x > 0) { x = x - 1; d = x + 1; }";
        let p = parse_program(src).unwrap();
        let raw = AnalysisJob::from_program_with(&p, &InvariantOptions::default(), false);
        let optimized = AnalysisJob::from_program_with(&p, &InvariantOptions::default(), true);
        assert!(raw.provenance.is_none());
        assert!(optimized.provenance.is_some());
        assert_ne!(
            cache_key(&raw, &sel, &opts),
            cache_key(&optimized, &sel, &opts),
            "the optimize boundary must not be crossed by cache hits"
        );
        // Both keys are stable across reconstruction (content-addressing).
        let again = AnalysisJob::from_program_with(&p, &InvariantOptions::default(), true);
        assert_eq!(
            cache_key(&optimized, &sel, &opts),
            cache_key(&again, &sel, &opts)
        );
    }

    impl ResultCache {
        /// The whole cache as one on-disk JSON document, built with the
        /// general serializer.
        fn to_json(&self) -> Json {
            let map = lock(&self.map);
            let entries = map
                .entries
                .iter()
                .map(|(k, e)| (k.clone(), Json::parse(&e.text()).unwrap()))
                .collect();
            Json::object([
                ("version", Json::Number(FORMAT_VERSION)),
                ("entries", Json::Object(entries)),
            ])
        }
    }

    /// Footprint of one entry in the saved document.
    fn entry_bytes(key: &str, report: &TerminationReport) -> usize {
        key.len() + "\"\":".len() + encode(report).len()
    }

    fn report_for(src: &str) -> TerminationReport {
        let j = job(src);
        analysed(&j)
    }

    #[test]
    fn size_budget_evicts_least_recently_used_first() {
        let r = report_for("var x; while (x > 0) { x = x - 1; }");
        let one = entry_bytes("a", &r);
        // Room for two entries (plus envelope and one comma), not three.
        let budget = ENVELOPE_BYTES + 2 * one + 1;
        let cache = ResultCache::new().with_max_bytes(Some(budget));
        cache.store("a".to_string(), r.clone());
        cache.store("b".to_string(), r.clone());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);

        // Freshen `a`, then overflow: `b` is now the least recently used.
        assert!(cache.lookup("a").is_some());
        cache.store("c".to_string(), r.clone());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup("a").is_some(), "freshened entry must survive");
        assert!(cache.lookup("b").is_none(), "LRU entry must be evicted");
        assert!(
            cache.lookup("c").is_some(),
            "just-stored entry must survive"
        );
        assert!(cache.serialized_bytes() <= budget);
    }

    #[test]
    fn tiny_budget_degrades_to_caching_the_newest_entry() {
        let r = report_for("var x; while (x > 0) { x = x - 1; }");
        // Smaller than a single entry: each store evicts everything else but
        // keeps itself, so the cache still serves repeats of the last job.
        let cache = ResultCache::new().with_max_bytes(Some(1));
        cache.store("a".to_string(), r.clone());
        cache.store("b".to_string(), r.clone());
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup("b").is_some());
        assert!(cache.lookup("a").is_none());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let r = report_for("var x; while (x > 0) { x = x - 1; }");
        let cache = ResultCache::new();
        for i in 0..16 {
            cache.store(format!("{i:016x}"), r.clone());
        }
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.stats().evictions, 0);
    }
}
