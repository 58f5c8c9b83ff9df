//! The compile-result cache: a bounded, evicting in-memory tier with an
//! optional persistent directory tier.
//!
//! Compilation is deterministic: the outcome is a pure function of
//! (device, circuit, compiler, config). A long-lived service can therefore
//! memoise it — repeated requests (re-runs of a sweep, the same benchmark
//! against the same machine from different tenants) are served from memory
//! without recompiling.
//!
//! The cache keeps each outcome in its stored form, an
//! [`EncodedOutcome`]: the compact bytes the codec writes, about 3.6 per
//! op where a decoded op takes 24. A remote hit costs no codec work at all,
//! because the daemon writes those bytes as the response payload; an
//! in-process hit costs one decode, when its handle is first waited on.
//!
//! ## Bounding and eviction (segmented LRU)
//!
//! Production traffic cannot run an unbounded memo table, so the cache
//! enforces two caps from [`CacheBounds`]: a **maximum entry count** and
//! a **maximum byte size**, where an entry weighs the length of its
//! encoding. Exceeding either cap evicts entries under a *segmented-LRU*
//! policy:
//!
//! * a new entry lands in the **probationary** segment;
//! * a hit promotes it to the **protected** segment (capped at 3/4 of the
//!   entry bound; overflow demotes the protected LRU back to probation);
//! * eviction removes the probationary LRU first and touches the
//!   protected segment only when probation is empty.
//!
//! One-touch entries (a sweep scanning thousands of configurations once)
//! therefore churn through probation without displacing the hot set —
//! the scan-resistance property plain LRU lacks. The policy is fully
//! deterministic: for a given sequence of `get`/`insert` calls the evicted
//! keys are fixed, which the unit tests pin down at capacity 1.
//!
//! ## The persistent tier
//!
//! Cache keys are built from stable, unseeded content fingerprints of the
//! device, circuit and config (see [`crate::hash`] and
//! [`Circuit::content_hash`](ssync_circuit::Circuit::content_hash)), so
//! they are valid *across processes*. Changing how one is computed strands
//! the files written under the old keys: they are never hit again, and
//! the directory GC's age and byte budgets retire them. With
//! [`CacheConfig::persist_dir`] set, every insert
//! is written through to `<dir>/<key>.outcome` (atomic tmp-file + rename)
//! and an in-memory miss falls back to loading that file, letting separate
//! bench runs share one compile. A file is a magic/version header and the
//! key, then the same bytes the memory tier keeps; a load decodes them once
//! to check them, so corrupt or truncated files — and files of an older
//! version — are treated as misses, never errors, and age out under the
//! directory budgets. The directory GC runs when the cache is built and
//! on each [`ResultCache::run_persist_gc`] (the daemon's janitor loop).
//! [`CacheConfig`] is plain data that a pool's
//! [`CompileServiceBuilder`](crate::CompileServiceBuilder) fills.

use crate::codec::{self, ByteReader, ByteWriter, CodecError, EncodedOutcome};
use ssync_baselines::CompilerKind;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The identity of one compile request, built from stable content hashes
/// (never from process-local pointers or randomly-seeded hashers):
/// the device's [fingerprint](crate::hash::device_fingerprint), the
/// circuit's [content hash](ssync_circuit::Circuit::content_hash), the
/// config's [hash](crate::hash::config_hash) and the compiler kind. Any
/// component changing produces a different key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Stable fingerprint of the target device (topology + weights).
    pub device_fingerprint: u64,
    /// Stable content hash of the input circuit.
    pub circuit_hash: u64,
    /// Stable hash of the configuration's wire encoding.
    pub config_hash: u64,
    /// Which compiler ran.
    pub compiler: CompilerKind,
}

impl CacheKey {
    /// The file name this key persists under: the three fingerprints plus
    /// the compiler tag, all stable across processes.
    pub fn file_name(&self) -> String {
        format!(
            "{:016x}-{:016x}-{:016x}-k{}.outcome",
            self.device_fingerprint,
            self.circuit_hash,
            self.config_hash,
            codec::compiler_kind_tag(self.compiler)
        )
    }
}

/// Capacity bounds for the in-memory tier of a [`ResultCache`]. `None`
/// means "unbounded" on that axis; both axes bounded means an entry is
/// evicted as soon as *either* cap is exceeded. The byte cap counts the
/// stored encodings, not the entries' bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheBounds {
    /// Maximum number of entries, `None` for unbounded.
    pub max_entries: Option<usize>,
    /// Maximum summed length of the stored encodings, `None` for
    /// unbounded.
    pub max_bytes: Option<usize>,
}

impl CacheBounds {
    /// No bounds on either axis (the historical unbounded-cache behaviour).
    pub const UNBOUNDED: CacheBounds = CacheBounds { max_entries: None, max_bytes: None };

    /// Bounds with an entry cap only.
    pub fn with_max_entries(entries: usize) -> Self {
        CacheBounds { max_entries: Some(entries), max_bytes: None }
    }

    /// Bounds with a byte cap only.
    pub fn with_max_bytes(bytes: usize) -> Self {
        CacheBounds { max_entries: None, max_bytes: Some(bytes) }
    }

    /// `true` when neither axis is bounded.
    pub fn is_unbounded(&self) -> bool {
        self.max_entries.is_none() && self.max_bytes.is_none()
    }
}

/// Full configuration of a [`ResultCache`], as plain data: capacity
/// bounds for the in-memory tier and the optional persistent directory
/// tier with the budgets its garbage collection keeps it within on disk.
/// The default is an unbounded, memory-only cache.
#[derive(Debug, Clone, Default)]
pub struct CacheConfig {
    /// Entry / byte caps of the in-memory tier ([`CacheBounds::UNBOUNDED`]
    /// by default — the historical behaviour).
    pub bounds: CacheBounds,
    /// Directory for the write-through persistent tier; `None` disables it.
    pub persist_dir: Option<PathBuf>,
    /// Byte budget for `persist_dir`, enforced by each directory GC (at
    /// construction and on [`ResultCache::run_persist_gc`]) by deleting
    /// `.outcome` files oldest-mtime-first until the directory fits.
    /// `None` (the default) leaves the directory unbounded — the
    /// pre-GC behaviour.
    pub persist_max_bytes: Option<u64>,
    /// Age budget for `persist_dir`: each directory GC deletes the
    /// `.outcome` files whose mtime is older than this regardless of the
    /// byte budget. `None` (the default) keeps files of any age.
    pub persist_max_age: Option<std::time::Duration>,
}

/// Counters of a [`ResultCache`], snapshot via [`ResultCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (memory or persistent tier).
    pub hits: u64,
    /// Lookups that fell through to a compile.
    pub misses: u64,
    /// Entries currently stored in memory.
    pub entries: usize,
    /// Summed length of the in-memory tier's stored encodings.
    pub bytes: usize,
    /// Entries evicted to stay within the configured bounds.
    pub evictions: u64,
    /// Of `hits`, lookups served by loading a persisted file after an
    /// in-memory miss.
    pub persist_hits: u64,
    /// Entries successfully written through to the persistent tier.
    pub persist_stores: u64,
    /// `.outcome` files deleted by the persistent tier's garbage
    /// collection (byte/age budgets, oldest-mtime-first).
    pub persist_gc_deleted: u64,
}

impl CacheStats {
    /// Hits over total lookups, `0.0` when nothing was looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One stored entry plus its bookkeeping. It weighs its encoding's
/// length.
struct Entry {
    outcome: EncodedOutcome,
    protected: bool,
    /// Matches the newest queue record for this key; older records with a
    /// different stamp are stale and skipped during eviction (lazy LRU).
    stamp: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// `(stamp, key)` records, LRU at the front. Stale records (stamp
    /// mismatch or wrong segment) are dropped when encountered.
    probation: VecDeque<(u64, CacheKey)>,
    protected: VecDeque<(u64, CacheKey)>,
    protected_count: usize,
    tick: u64,
    bytes: usize,
}

/// A concurrent memo table from [`CacheKey`] to encoded compile outcomes,
/// bounded and evicting per the module docs. Only successful outcomes are
/// stored: errors are cheap to reproduce (validation fails before any
/// scheduling work) and should not occupy memory.
pub struct ResultCache {
    inner: Mutex<Inner>,
    config: CacheConfig,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    persist_hits: AtomicU64,
    persist_stores: AtomicU64,
    persist_gc_deleted: AtomicU64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache").field("config", &self.config).finish_non_exhaustive()
    }
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::with_config(CacheConfig::default())
    }
}

impl ResultCache {
    /// An empty, unbounded, memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with the full configuration, including the optional
    /// persistent tier. When the persistent tier carries a byte or age
    /// budget, the directory is garbage-collected **now** (startup is the
    /// one moment the tier is quiescent): files older than the age budget
    /// go first, then oldest-mtime-first deletion until the byte budget
    /// holds. Deletions are counted in
    /// [`CacheStats::persist_gc_deleted`].
    pub fn with_config(config: CacheConfig) -> Self {
        let cache = ResultCache {
            inner: Mutex::new(Inner::default()),
            config,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            persist_hits: AtomicU64::new(0),
            persist_stores: AtomicU64::new(0),
            persist_gc_deleted: AtomicU64::new(0),
        };
        cache.run_persist_gc();
        cache
    }

    /// The active configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Runs the persistent-tier garbage collection **now** against the
    /// configured byte/age budgets — the same sweep the constructor runs
    /// at startup, callable periodically (the daemon's janitor loop)
    /// so a long-lived process keeps its directory bounded instead of
    /// only trimming it at boot. Deletion is safe while other processes
    /// share the directory: writers publish via tmp + rename (GC skips
    /// the dot-prefixed tmp files), and a reader losing a file mid-race
    /// simply sees a miss. Returns how many files were deleted (also
    /// added to [`CacheStats::persist_gc_deleted`]); a cache with no
    /// persistent tier or no budgets deletes nothing.
    pub fn run_persist_gc(&self) -> u64 {
        let deleted = match &self.config.persist_dir {
            Some(dir)
                if self.config.persist_max_bytes.is_some()
                    || self.config.persist_max_age.is_some() =>
            {
                gc_persist_dir(dir, self.config.persist_max_bytes, self.config.persist_max_age)
            }
            _ => 0,
        };
        if deleted > 0 {
            self.persist_gc_deleted.fetch_add(deleted, Ordering::Relaxed);
        }
        deleted
    }

    /// Looks `key` up, counting the outcome as a hit or miss. An in-memory
    /// miss consults the persistent tier (when configured) before giving
    /// up; a loaded file counts as both a hit and a `persist_hit` and is
    /// promoted into the memory tier. A hit shares the stored buffer.
    pub fn get(&self, key: &CacheKey) -> Option<EncodedOutcome> {
        if let Some(outcome) = self.get_memory(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(outcome);
        }
        if let Some(outcome) = self.load_persisted(key) {
            self.insert_memory(*key, outcome.clone());
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.persist_hits.fetch_add(1, Ordering::Relaxed);
            return Some(outcome);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a compiled outcome under `key` (write-through to the
    /// persistent tier when configured). Last write wins; since
    /// compilation is deterministic, concurrent writers store identical
    /// results and the race is benign.
    pub fn insert(&self, key: CacheKey, outcome: EncodedOutcome) {
        self.insert_memory(key, outcome.clone());
        if let Some(dir) = &self.config.persist_dir {
            if self.store_persisted(dir, &key, &outcome).is_ok() {
                self.persist_stores.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn get_memory(&self, key: &CacheKey) -> Option<EncodedOutcome> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        let inner = &mut *inner;
        let entry = inner.map.get_mut(key)?;
        let outcome = entry.outcome.clone();
        // Promote to protected, restamping so older queue records go stale.
        inner.tick += 1;
        entry.stamp = inner.tick;
        if !entry.protected {
            entry.protected = true;
            inner.protected_count += 1;
        }
        let stamp = entry.stamp;
        inner.protected.push_back((stamp, *key));
        // Protected overflow demotes its LRU back to probation, keeping
        // room for newcomers to earn a second touch.
        let cap = protected_cap(&self.config.bounds);
        while inner.protected_count > cap {
            let Some((stamp, victim)) = inner.protected.pop_front() else { break };
            let Some(e) = inner.map.get_mut(&victim) else { continue };
            if !e.protected || e.stamp != stamp {
                continue; // stale record
            }
            inner.tick += 1;
            e.protected = false;
            e.stamp = inner.tick;
            let stamp = e.stamp;
            inner.protected_count -= 1;
            inner.probation.push_back((stamp, victim));
        }
        maybe_compact(inner);
        Some(outcome)
    }

    fn insert_memory(&self, key: CacheKey, outcome: EncodedOutcome) {
        let bytes = outcome.as_bytes().len();
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        let inner = &mut *inner;
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let entry = slot.get_mut();
                inner.bytes = inner.bytes - entry.outcome.as_bytes().len() + bytes;
                entry.outcome = outcome;
                entry.stamp = tick;
                if entry.protected {
                    inner.protected.push_back((tick, key));
                } else {
                    inner.probation.push_back((tick, key));
                }
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Entry { outcome, protected: false, stamp: tick });
                inner.bytes += bytes;
                inner.probation.push_back((tick, key));
            }
        }
        let evicted = enforce_bounds(inner, &self.config.bounds);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        maybe_compact(inner);
    }

    fn load_persisted(&self, key: &CacheKey) -> Option<EncodedOutcome> {
        let dir = self.config.persist_dir.as_ref()?;
        let bytes = std::fs::read(dir.join(key.file_name())).ok()?;
        decode_persisted(&bytes)
            .ok()
            .filter(|(stored, _)| stored == key)
            .map(|(_, outcome)| outcome)
    }

    fn store_persisted(
        &self,
        dir: &Path,
        key: &CacheKey,
        outcome: &EncodedOutcome,
    ) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let bytes = encode_persisted(key, outcome);
        // Atomic publish: readers only ever see complete files.
        let tmp = dir.join(format!(".{}.tmp-{}", key.file_name(), std::process::id()));
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, dir.join(key.file_name()))
    }

    /// Number of stored in-memory entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock poisoned").map.len()
    }

    /// `true` when nothing is stored in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent snapshot of every counter.
    pub fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let inner = self.inner.lock().expect("cache lock poisoned");
            (inner.map.len(), inner.bytes)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            bytes,
            evictions: self.evictions.load(Ordering::Relaxed),
            persist_hits: self.persist_hits.load(Ordering::Relaxed),
            persist_stores: self.persist_stores.load(Ordering::Relaxed),
            persist_gc_deleted: self.persist_gc_deleted.load(Ordering::Relaxed),
        }
    }
}

/// Enforces the persistent tier's byte/age budgets on `dir` by deleting
/// `.outcome` files: everything older than `max_age` first, then
/// oldest-mtime-first (ties broken by file name, so the order — and
/// therefore which files survive — is deterministic) until the remaining
/// total is within `max_bytes`. Returns how many files were deleted. A
/// missing or unreadable directory deletes nothing; files that vanish
/// mid-scan are skipped.
fn gc_persist_dir(dir: &Path, max_bytes: Option<u64>, max_age: Option<std::time::Duration>) -> u64 {
    use std::time::SystemTime;

    let Ok(listing) = std::fs::read_dir(dir) else { return 0 };
    let mut files: Vec<(SystemTime, PathBuf, u64)> = listing
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let path = entry.path();
            if path.extension().is_none_or(|ext| ext != "outcome") {
                return None;
            }
            let meta = entry.metadata().ok()?;
            Some((meta.modified().ok()?, path, meta.len()))
        })
        .collect();
    files.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let now = SystemTime::now();
    let mut deleted = 0u64;
    let mut keep = Vec::with_capacity(files.len());
    for (mtime, path, len) in files {
        let too_old =
            max_age.is_some_and(|budget| now.duration_since(mtime).is_ok_and(|age| age > budget));
        if too_old && std::fs::remove_file(&path).is_ok() {
            deleted += 1;
        } else {
            keep.push((path, len));
        }
    }
    if let Some(budget) = max_bytes {
        let mut total: u64 = keep.iter().map(|(_, len)| len).sum();
        for (path, len) in keep {
            if total <= budget {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                deleted += 1;
                total -= len;
            }
        }
    }
    deleted
}

/// Every hit pushes a fresh queue record and leaves the old one stale, so
/// a hot entry hit many times would grow the queues without bound. When
/// the queues hold more than 4× the live entries, drop every stale record
/// in place (order among live records is preserved, so LRU order — and
/// therefore eviction determinism — is unaffected).
fn maybe_compact(inner: &mut Inner) {
    let live = inner.map.len();
    if inner.probation.len() + inner.protected.len() <= (4 * live).max(32) {
        return;
    }
    let Inner { map, probation, protected, .. } = inner;
    probation
        .retain(|(stamp, key)| map.get(key).is_some_and(|e| !e.protected && e.stamp == *stamp));
    protected.retain(|(stamp, key)| map.get(key).is_some_and(|e| e.protected && e.stamp == *stamp));
}

/// The protected segment holds at most 3/4 of a bounded cache (at least
/// one entry); unbounded caches never demote.
fn protected_cap(bounds: &CacheBounds) -> usize {
    match bounds.max_entries {
        Some(max) => (max.saturating_mul(3) / 4).max(1),
        None => usize::MAX,
    }
}

/// Evicts until both caps hold; returns how many entries were removed.
fn enforce_bounds(inner: &mut Inner, bounds: &CacheBounds) -> u64 {
    let over = |inner: &Inner| {
        bounds.max_entries.is_some_and(|cap| inner.map.len() > cap)
            || bounds.max_bytes.is_some_and(|cap| inner.bytes > cap)
    };
    let mut evicted = 0u64;
    while over(inner) && !inner.map.is_empty() {
        if evict_one(inner, false) || evict_one(inner, true) {
            evicted += 1;
        } else {
            break; // queues exhausted (cannot happen with a non-empty map)
        }
    }
    evicted
}

/// Pops the LRU of one segment (skipping stale records) and removes it
/// from the map. Returns `false` when the segment has no live entry.
fn evict_one(inner: &mut Inner, from_protected: bool) -> bool {
    let queue = if from_protected { &mut inner.protected } else { &mut inner.probation };
    while let Some((stamp, key)) = queue.pop_front() {
        let Some(entry) = inner.map.get(&key) else { continue };
        if entry.protected != from_protected || entry.stamp != stamp {
            continue; // stale record: the entry moved or was restamped
        }
        let entry = inner.map.remove(&key).expect("checked present");
        inner.bytes -= entry.outcome.as_bytes().len();
        if from_protected {
            inner.protected_count -= 1;
        }
        return true;
    }
    false
}

const PERSIST_MAGIC: u32 = 0x5353_4352; // "SSCR"
/// The cache-file version, bumped with any change to the outcome
/// encoding; a file of any other version is a miss.
pub(crate) const PERSIST_VERSION: u32 = 2;

/// A cache file: magic, version and key at fixed width, then the stored
/// encoding as it is.
fn encode_persisted(key: &CacheKey, outcome: &EncodedOutcome) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(PERSIST_MAGIC);
    w.put_u32(PERSIST_VERSION);
    w.put_u64(key.device_fingerprint);
    w.put_u64(key.circuit_hash);
    w.put_u64(key.config_hash);
    w.put_u8(codec::compiler_kind_tag(key.compiler));
    w.put_bytes(outcome.as_bytes());
    w.into_bytes()
}

/// Reads a cache file written by [`encode_persisted`], decoding its body
/// once to check it.
fn decode_persisted(bytes: &[u8]) -> Result<(CacheKey, EncodedOutcome), CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.get_u32()? != PERSIST_MAGIC {
        return Err(CodecError::Invalid("cache file magic"));
    }
    if r.get_u32()? != PERSIST_VERSION {
        return Err(CodecError::Invalid("cache file version"));
    }
    let key = CacheKey {
        device_fingerprint: r.get_u64()?,
        circuit_hash: r.get_u64()?,
        config_hash: r.get_u64()?,
        compiler: codec::compiler_kind_from_tag(r.get_u8()?)?,
    };
    Ok((key, EncodedOutcome::from_bytes(r.rest())?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_arch::QccdTopology;
    use ssync_circuit::generators::qft;
    use ssync_core::{CompilerConfig, SSyncCompiler};

    fn key_n(n: u64) -> CacheKey {
        CacheKey {
            device_fingerprint: n,
            circuit_hash: 100 + n,
            config_hash: 200 + n,
            compiler: CompilerKind::SSync,
        }
    }

    fn key(config: &CompilerConfig, circuit_hash: u64) -> CacheKey {
        CacheKey {
            device_fingerprint: 7,
            circuit_hash,
            config_hash: crate::hash::config_hash(config),
            compiler: CompilerKind::SSync,
        }
    }

    /// A memory-only cache with `bounds`.
    fn bounded(bounds: CacheBounds) -> ResultCache {
        ResultCache::with_config(CacheConfig { bounds, ..CacheConfig::default() })
    }

    /// An unbounded cache whose persistent tier is `dir`, with no
    /// directory budgets.
    fn persisting(dir: &Path) -> ResultCache {
        ResultCache::with_config(CacheConfig {
            persist_dir: Some(dir.to_path_buf()),
            ..CacheConfig::default()
        })
    }

    fn some_outcome() -> EncodedOutcome {
        let circuit = qft(6);
        let outcome = SSyncCompiler::default()
            .compile(&circuit, &QccdTopology::linear(2, 4))
            .expect("compiles");
        EncodedOutcome::encode(&outcome)
    }

    /// A hit hands back the stored buffer itself, which decodes to the
    /// inserted outcome bit for bit.
    #[test]
    fn identical_resubmit_hits_and_returns_the_same_arc() {
        let cache = ResultCache::new();
        let config = CompilerConfig::default();
        let circuit = qft(6);
        let k = key(&config, circuit.content_hash());
        assert!(cache.get(&k).is_none());
        let outcome = codec::routed_outcome();
        let stored = EncodedOutcome::encode(&outcome);
        cache.insert(k, stored.clone());
        let hit = cache.get(&k).expect("second lookup hits");
        assert!(EncodedOutcome::ptr_eq(&hit, &stored), "hits share the stored encoding");
        let decoded = hit.decode();
        assert_eq!(outcome.program().ops(), decoded.program().ops());
        assert_eq!(outcome.final_placement(), decoded.final_placement());
        assert_eq!(outcome.scheduler_stats(), decoded.scheduler_stats());
        assert_eq!(
            outcome.report().success_rate.to_bits(),
            decoded.report().success_rate.to_bits()
        );
        assert_eq!(
            outcome.report().total_time_us.to_bits(),
            decoded.report().total_time_us.to_bits()
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(stats.evictions, 0);
    }

    /// An entry weighs exactly its encoding's length, so the byte cap and
    /// `CacheStats::bytes` count the bytes the cache really keeps — about
    /// 3.6 per op for a routed program, where each decoded op takes 24.
    #[test]
    fn an_entry_weighs_its_encoding() {
        let outcome = codec::routed_outcome();
        let stored = EncodedOutcome::encode(&outcome);
        let cache = ResultCache::new();
        cache.insert(key_n(1), stored.clone());
        assert_eq!(cache.stats().bytes, stored.as_bytes().len());
        let ops = outcome.program().len();
        assert!(
            stored.as_bytes().len() < ops * 8,
            "{} bytes for {ops} ops",
            stored.as_bytes().len()
        );
        cache.insert(key_n(2), some_outcome());
        assert_eq!(cache.stats().bytes, stored.as_bytes().len() + some_outcome().as_bytes().len());
        // Re-inserting a key swaps its weight rather than adding to it.
        cache.insert(key_n(1), some_outcome());
        assert_eq!(cache.stats().bytes, 2 * some_outcome().as_bytes().len());
    }

    #[test]
    fn any_key_component_change_is_a_miss() {
        let cache = ResultCache::new();
        let config = CompilerConfig::default();
        let circuit = qft(6);
        let base = key(&config, circuit.content_hash());
        cache.insert(base, some_outcome());

        let reconfigured = key(&config.with_decay(0.01), circuit.content_hash());
        assert!(cache.get(&reconfigured).is_none(), "config change must miss");
        let other_circuit = key(&config, qft(7).content_hash());
        assert!(cache.get(&other_circuit).is_none(), "circuit change must miss");
        let other_device = CacheKey { device_fingerprint: 8, ..base };
        assert!(cache.get(&other_device).is_none(), "device change must miss");
        let other_compiler = CacheKey { compiler: CompilerKind::Murali, ..base };
        assert!(cache.get(&other_compiler).is_none(), "compiler change must miss");
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn empty_cache_reports_zero_rate() {
        let cache = ResultCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    /// The capacity-1 determinism contract: inserting a second entry
    /// always evicts the probationary LRU, and a protected (hit) entry
    /// outlives a one-touch newcomer.
    #[test]
    fn capacity_one_cache_evicts_deterministically() {
        let cache = bounded(CacheBounds::with_max_entries(1));
        let outcome = some_outcome();
        let (a, b, c) = (key_n(1), key_n(2), key_n(3));

        // Two one-touch inserts: the older entry (A) is evicted.
        cache.insert(a, outcome.clone());
        cache.insert(b, outcome.clone());
        assert!(cache.get(&a).is_none(), "A was the probationary LRU");
        assert!(cache.get(&b).is_some(), "B survived (and is now protected)");
        assert_eq!(cache.stats().evictions, 1);

        // B is protected by the hit above; a newcomer churns through
        // probation without displacing it (scan resistance).
        cache.insert(c, outcome.clone());
        assert!(cache.get(&b).is_some(), "protected entry survives the scan");
        assert!(cache.get(&c).is_none(), "one-touch newcomer was evicted");
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn entry_cap_keeps_the_hot_set() {
        let cache = bounded(CacheBounds::with_max_entries(4));
        let outcome = some_outcome();
        for n in 0..4 {
            cache.insert(key_n(n), outcome.clone());
        }
        // Touch 0 and 1: they are promoted to protected.
        assert!(cache.get(&key_n(0)).is_some());
        assert!(cache.get(&key_n(1)).is_some());
        // Four more one-touch inserts sweep through.
        for n in 4..8 {
            cache.insert(key_n(n), outcome.clone());
        }
        assert!(cache.get(&key_n(0)).is_some(), "hot entry survived the sweep");
        assert!(cache.get(&key_n(1)).is_some(), "hot entry survived the sweep");
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions, 4);
    }

    #[test]
    fn byte_cap_evicts_and_a_single_oversized_entry_is_dropped() {
        let outcome = some_outcome();
        let per_entry = outcome.as_bytes().len();

        // Room for exactly two entries.
        let cache = bounded(CacheBounds::with_max_bytes(2 * per_entry + 1));
        cache.insert(key_n(1), outcome.clone());
        cache.insert(key_n(2), outcome.clone());
        assert_eq!(cache.len(), 2);
        cache.insert(key_n(3), outcome.clone());
        assert_eq!(cache.len(), 2, "third entry pushed out the LRU");
        assert!(cache.get(&key_n(1)).is_none());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().bytes <= 2 * per_entry + 1);

        // A cap smaller than one entry refuses to retain anything.
        let tiny = bounded(CacheBounds::with_max_bytes(per_entry / 2));
        tiny.insert(key_n(1), outcome.clone());
        assert!(tiny.is_empty(), "oversized entries cannot be cached");
        assert_eq!(tiny.stats().evictions, 1);
        assert_eq!(tiny.stats().bytes, 0);
    }

    #[test]
    fn persisted_entries_round_trip_bit_identically() {
        let dir = std::env::temp_dir().join(format!("ssync-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let outcome = codec::routed_outcome();
        let stored = EncodedOutcome::encode(&outcome);
        let k = key_n(42);
        let writer = persisting(&dir);
        writer.insert(k, stored.clone());
        assert_eq!(writer.stats().persist_stores, 1);
        // The file is the header and the stored bytes, unchanged.
        let file = std::fs::read(dir.join(k.file_name())).expect("written");
        assert_eq!(file, encode_persisted(&k, &stored));
        assert!(file.ends_with(stored.as_bytes()));

        // A second cache (standing in for a second process) finds the file.
        let reader = persisting(&dir);
        let loaded = reader.get(&k).expect("served from the persistent tier");
        assert_eq!(loaded, stored, "the loaded bytes are the stored bytes");
        let loaded = loaded.decode();
        assert_eq!(outcome.program().ops(), loaded.program().ops());
        assert_eq!(outcome.final_placement(), loaded.final_placement());
        assert_eq!(outcome.scheduler_stats(), loaded.scheduler_stats());
        assert_eq!(outcome.compile_time(), loaded.compile_time());
        assert_eq!(outcome.report().success_rate.to_bits(), loaded.report().success_rate.to_bits());
        let stats = reader.stats();
        assert_eq!((stats.hits, stats.persist_hits, stats.misses), (1, 1, 0));
        // The loaded entry was promoted into memory: next hit skips disk.
        assert!(reader.get(&k).is_some());
        assert_eq!(reader.stats().persist_hits, 1);

        // A file of the previous version is a miss, left for the GC.
        let mut v1 = file.clone();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(dir.join(k.file_name()), &v1).expect("overwrite");
        let old = persisting(&dir);
        assert!(old.get(&k).is_none());
        assert_eq!(old.stats().misses, 1);
        assert!(dir.join(k.file_name()).exists());

        // Corrupt files degrade to a miss, never an error.
        std::fs::write(dir.join(k.file_name()), b"garbage").expect("overwrite");
        let fresh = persisting(&dir);
        assert!(fresh.get(&k).is_none());
        assert_eq!(fresh.stats().misses, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cache file that is well formed except for one op count too wide
    /// for `u16` is a miss: the tier never serves a truncated count.
    #[test]
    fn a_cache_file_with_an_op_count_beyond_u16_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("ssync-cache-count-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let chain_len = 3;
        let intact = codec::one_gate_bytes(chain_len, &[4]);
        let k = key_n(9);
        let file = encode_persisted(&k, &EncodedOutcome::from_bytes(&intact).expect("valid"));
        let path = dir.join(k.file_name());

        std::fs::write(&path, &file).expect("write");
        let intact_cache = persisting(&dir);
        assert!(intact_cache.get(&k).is_some(), "the unaltered file is a hit");

        // The file is a header followed by the encoded outcome.
        let mut widened = file[..file.len() - intact.len()].to_vec();
        widened.extend(codec::one_gate_bytes(chain_len, &codec::varint(u64::from(u16::MAX) + 1)));
        std::fs::write(&path, &widened).expect("overwrite");
        let widened = persisting(&dir);
        assert!(widened.get(&k).is_none());
        let stats = widened.stats();
        assert_eq!((stats.hits, stats.persist_hits, stats.misses), (0, 0, 1));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_gc_enforces_byte_and_age_budgets_oldest_first() {
        let dir = std::env::temp_dir().join(format!("ssync-cache-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Write four entries through a first (unbounded) cache, spacing
        // mtimes so "oldest" is unambiguous.
        let outcome = some_outcome();
        let writer = persisting(&dir);
        let keys: Vec<CacheKey> = (0..4).map(key_n).collect();
        for key in &keys {
            writer.insert(*key, outcome.clone());
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let file_len = std::fs::metadata(dir.join(keys[0].file_name())).expect("written").len();

        // A byte budget of ~2 files deletes the two oldest at startup.
        let gc = ResultCache::with_config(CacheConfig {
            persist_dir: Some(dir.clone()),
            persist_max_bytes: Some(2 * file_len + file_len / 2),
            ..CacheConfig::default()
        });
        assert_eq!(gc.stats().persist_gc_deleted, 2);
        assert!(!dir.join(keys[0].file_name()).exists(), "oldest deleted first");
        assert!(!dir.join(keys[1].file_name()).exists());
        assert!(dir.join(keys[2].file_name()).exists(), "newest survive");
        assert!(dir.join(keys[3].file_name()).exists());
        // The survivors still serve hits.
        assert!(gc.get(&keys[3]).is_some());
        assert!(gc.get(&keys[0]).is_none());

        // A zero age budget wipes whatever remains.
        let wipe = ResultCache::with_config(CacheConfig {
            persist_dir: Some(dir.clone()),
            persist_max_age: Some(std::time::Duration::from_secs(0)),
            ..CacheConfig::default()
        });
        assert_eq!(wipe.stats().persist_gc_deleted, 2);
        assert!(!dir.join(keys[3].file_name()).exists());

        // No budgets, no GC (the historical behaviour).
        let plain = persisting(&dir);
        assert_eq!(plain.stats().persist_gc_deleted, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_bounds_builders_and_unbounded() {
        assert!(CacheBounds::UNBOUNDED.is_unbounded());
        assert!(CacheBounds::default().is_unbounded());
        let entries = CacheBounds::with_max_entries(16);
        assert_eq!(entries.max_entries, Some(16));
        assert!(!entries.is_unbounded());
        let bytes = CacheBounds::with_max_bytes(1 << 20);
        assert_eq!(bytes.max_bytes, Some(1 << 20));
        assert!(!bytes.is_unbounded());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// A persisted file cut short, or with one byte's bits flipped,
        /// decodes to an error — a miss — or to a key and an outcome that
        /// re-encode to exactly the damaged file, never a panic.
        #[test]
        fn damaged_cache_files_are_misses_or_exact(cut in 0usize..1 << 16, at in 0usize..1 << 16, mask in 1u16..256) {
            static FILE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
            let file = FILE.get_or_init(|| {
                encode_persisted(&key_n(5), &EncodedOutcome::encode(&codec::routed_outcome()))
            });
            let mut flipped = file.clone();
            flipped[at % file.len()] ^= mask as u8;
            for damaged in [&file[..cut % file.len()], &flipped[..]] {
                if let Ok((key, outcome)) = decode_persisted(damaged) {
                    assert_eq!(encode_persisted(&key, &outcome), damaged);
                }
            }
        }
    }
}
