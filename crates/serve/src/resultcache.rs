//! Content-addressed result cache: a memory tier over an optional,
//! **size-bounded** disk tier.
//!
//! Keys are job ids — SHA-256 digests of the canonical spec
//! ([`crate::spec::JobSpec::id`]) — so a payload stored under a key is
//! valid forever: the key commits to every input that shaped the bytes.
//! There is consequently no invalidation and no TTL; the memory tier
//! lives as long as the process, the disk tier (one `<id>.json` per
//! result, in the style of `GR_TRACE_CACHE`'s sidecar files) survives
//! daemon restarts.
//!
//! The disk tier is bounded by a byte budget (`GR_RESULT_CACHE_MAX`, or
//! [`ResultCache::with_budget`]): when a store would push the total over
//! budget, the least-recently-*used* files are deleted first. Recency is
//! tracked by an in-process sequence number — a disk hit refreshes the
//! entry, so the hot working set survives while cold sweeps get evicted.
//! On startup the directory is scanned and ordered by mtime (the best
//! available proxy for cross-restart recency), and the budget is enforced
//! immediately, so shrinking the budget across a restart also shrinks the
//! directory. The budget counts payload bytes; each file adds a 72-byte
//! digest line.
//!
//! The job id digests the spec, not the payload, so nothing about the key
//! vouches for a file's bytes. Each file therefore starts with one line,
//! `sha256:<hex digest of the payload>`, and every disk read checks it. A
//! file whose digest does not match, or that has no digest line, is
//! deleted and counted (`grserve_result_cache_corrupt_total`), and the
//! lookup misses, so the job executes again instead of serving damaged
//! bytes for the life of the process. Memory hits are not re-hashed.
//! Files are written with [`grtrace::io::write_atomic`], so a concurrent
//! reader — in this process or another sharing the directory — never sees
//! a torn payload.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hash::sha256_hex;
use crate::metrics::CacheTier;

/// Default disk budget when `GR_RESULT_CACHE_MAX` is unset: 256 MiB.
pub const DEFAULT_DISK_BUDGET: u64 = 256 * 1024 * 1024;

/// Prefix of the digest line that starts every disk-tier file.
const DIGEST_PREFIX: &str = "sha256:";

/// Bytes of the digest line: the prefix, 64 hex digits, and a newline.
const DIGEST_LINE_BYTES: u64 = (DIGEST_PREFIX.len() + 64 + 1) as u64;

/// The payload of a disk-tier file's bytes, if its digest line is present
/// and matches.
fn verified_payload(file: Vec<u8>) -> Option<String> {
    let text = String::from_utf8(file).ok()?;
    let (line, payload) = text.split_once('\n')?;
    let digest = line.strip_prefix(DIGEST_PREFIX)?;
    (digest == sha256_hex(payload.as_bytes())).then(|| payload.to_string())
}

/// LRU bookkeeping for the disk tier. `by_id` and `by_seq` mirror each
/// other; `total` is the byte sum of every tracked file.
struct DiskIndex {
    by_id: HashMap<String, (u64, u64)>, // id → (seq, bytes)
    by_seq: BTreeMap<u64, String>,      // seq → id, oldest first
    total: u64,
    next_seq: u64,
}

impl DiskIndex {
    fn new() -> DiskIndex {
        DiskIndex { by_id: HashMap::new(), by_seq: BTreeMap::new(), total: 0, next_seq: 0 }
    }

    /// Inserts or refreshes `id`, returning ids to evict to fit `budget`.
    fn touch(&mut self, id: &str, bytes: u64, budget: u64) -> Vec<String> {
        if let Some((seq, old_bytes)) = self.by_id.remove(id) {
            self.by_seq.remove(&seq);
            self.total -= old_bytes;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_id.insert(id.to_string(), (seq, bytes));
        self.by_seq.insert(seq, id.to_string());
        self.total += bytes;

        let mut evict = Vec::new();
        while self.total > budget {
            let Some((&seq, _)) = self.by_seq.iter().next() else { break };
            let victim = self.by_seq.remove(&seq).expect("seq just observed");
            if victim == id {
                // Never evict the entry being stored, even if it alone
                // exceeds the budget — a cache that refuses its newest
                // result would recompute it on the next restart.
                self.by_seq.insert(seq, victim);
                break;
            }
            let (_, bytes) = self.by_id.remove(&victim).expect("indexes mirror");
            self.total -= bytes;
            evict.push(victim);
        }
        evict
    }

    /// Marks `id` most recently used without changing its size (memory
    /// hits count as use of the disk copy too).
    fn refresh(&mut self, id: &str) {
        if let Some(&(seq, bytes)) = self.by_id.get(id) {
            self.by_seq.remove(&seq);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.by_id.insert(id.to_string(), (seq, bytes));
            self.by_seq.insert(seq, id.to_string());
        }
    }

    fn forget(&mut self, id: &str) {
        if let Some((seq, bytes)) = self.by_id.remove(id) {
            self.by_seq.remove(&seq);
            self.total -= bytes;
        }
    }
}

/// The result cache shared by workers and request handlers.
pub struct ResultCache {
    memory: Mutex<HashMap<String, Arc<String>>>,
    disk: Option<PathBuf>,
    disk_budget: u64,
    index: Mutex<DiskIndex>,
    /// Disk files deleted to stay under budget (monotonic; exported as
    /// `grserve_result_cache_evictions_total`).
    evictions: AtomicU64,
    /// Disk files deleted because their digest did not match (monotonic;
    /// exported as `grserve_result_cache_corrupt_total`).
    corrupt: AtomicU64,
}

impl ResultCache {
    /// Creates a cache; `disk` enables the persistent tier rooted at that
    /// directory (created on first store). The disk budget comes from
    /// `GR_RESULT_CACHE_MAX` (bytes), defaulting to
    /// [`DEFAULT_DISK_BUDGET`].
    pub fn new(disk: Option<PathBuf>) -> ResultCache {
        let budget = std::env::var("GR_RESULT_CACHE_MAX")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(DEFAULT_DISK_BUDGET);
        ResultCache::with_budget(disk, budget)
    }

    /// Creates a cache with an explicit disk byte budget.
    pub fn with_budget(disk: Option<PathBuf>, disk_budget: u64) -> ResultCache {
        let cache = ResultCache {
            memory: Mutex::new(HashMap::new()),
            disk,
            disk_budget,
            index: Mutex::new(DiskIndex::new()),
            evictions: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        };
        cache.scan_disk();
        cache
    }

    /// Seeds the LRU index from an existing directory, oldest mtime
    /// first, and enforces the budget right away (a restart with a
    /// smaller `GR_RESULT_CACHE_MAX` trims the directory immediately).
    fn scan_disk(&self) {
        let Some(dir) = &self.disk else { return };
        let Ok(entries) = fs::read_dir(dir) else { return };
        let mut found: Vec<(std::time::SystemTime, String, u64)> = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(id) = name.strip_suffix(".json") else { continue };
            if !id.chars().all(|c| c.is_ascii_hexdigit()) {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            let bytes = meta.len().saturating_sub(DIGEST_LINE_BYTES);
            found.push((mtime, id.to_string(), bytes));
        }
        found.sort();
        let mut index = self.index.lock().expect("index lock");
        let mut evict_all = Vec::new();
        for (_, id, bytes) in found {
            evict_all.extend(index.touch(&id, bytes, self.disk_budget));
        }
        drop(index);
        self.delete_files(evict_all);
    }

    fn disk_path(&self, id: &str) -> Option<PathBuf> {
        // Ids are validated hex elsewhere, but never trust a request-derived
        // string as a path component.
        if !id.chars().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        self.disk.as_ref().map(|dir| dir.join(format!("{id}.json")))
    }

    fn delete_files(&self, ids: Vec<String>) {
        for id in ids {
            if let Some(path) = self.disk_path(&id) {
                if fs::remove_file(path).is_ok() {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Looks `id` up, reporting which tier answered. A disk hit is
    /// verified against its digest line, promoted into the memory tier on
    /// the way out, and refreshed in the LRU order; a disk file that fails
    /// the check is deleted and the lookup misses.
    pub fn get(&self, id: &str) -> Option<(Arc<String>, CacheTier)> {
        if let Some(hit) = self.memory.lock().expect("cache lock").get(id) {
            let hit = Arc::clone(hit);
            self.index.lock().expect("index lock").refresh(id);
            return Some((hit, CacheTier::Memory));
        }
        let path = self.disk_path(id)?;
        let Ok(file) = fs::read(&path) else {
            // Possibly evicted by another process sharing the dir; drop
            // any stale index entry.
            self.index.lock().expect("index lock").forget(id);
            return None;
        };
        let Some(payload) = verified_payload(file) else {
            let _ = fs::remove_file(&path);
            self.index.lock().expect("index lock").forget(id);
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let payload = Arc::new(payload);
        let evict = self.index.lock().expect("index lock").touch(
            id,
            payload.len() as u64,
            self.disk_budget,
        );
        self.delete_files(evict);
        self.memory.lock().expect("cache lock").insert(id.to_string(), Arc::clone(&payload));
        Some((payload, CacheTier::Disk))
    }

    /// Stores a payload in both tiers, evicting least-recently-used disk
    /// entries if the budget is exceeded. Disk write failures are
    /// swallowed: the disk tier is an optimization, never a correctness
    /// dependency.
    pub fn put(&self, id: &str, payload: Arc<String>) {
        if let Some(path) = self.disk_path(id) {
            if let Some(dir) = path.parent() {
                let _ = fs::create_dir_all(dir);
            }
            let written = grtrace::io::write_atomic(&path, |w| {
                writeln!(w, "{DIGEST_PREFIX}{}", sha256_hex(payload.as_bytes()))?;
                w.write_all(payload.as_bytes())
            });
            if written.is_ok() {
                let evict = self.index.lock().expect("index lock").touch(
                    id,
                    payload.len() as u64,
                    self.disk_budget,
                );
                self.delete_files(evict);
            }
        }
        self.memory.lock().expect("cache lock").insert(id.to_string(), payload);
    }

    /// Entries resident in the memory tier.
    pub fn memory_len(&self) -> usize {
        self.memory.lock().expect("cache lock").len()
    }

    /// Bytes currently tracked in the disk tier.
    pub fn disk_bytes(&self) -> u64 {
        self.index.lock().expect("index lock").total
    }

    /// Disk files evicted to stay under budget since startup.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Disk files deleted because they failed their digest check since
    /// startup.
    pub fn corrupt(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// A unique temp dir per test without any randomness source.
    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("grserve-rc-{}-{tag}-{n}", std::process::id()))
    }

    #[test]
    fn memory_tier_round_trips() {
        let cache = ResultCache::new(None);
        assert!(cache.get("aa").is_none());
        cache.put("aa", Arc::new("payload".to_string()));
        let (hit, tier) = cache.get("aa").unwrap();
        assert_eq!(*hit, "payload");
        assert_eq!(tier, CacheTier::Memory);
    }

    #[test]
    fn disk_tier_survives_a_new_cache_instance() {
        let dir = temp_dir("persist");
        let first = ResultCache::new(Some(dir.clone()));
        first.put("beef", Arc::new("{\"x\": 1}".to_string()));
        drop(first);

        // A fresh instance (fresh memory tier) must find it on disk, then
        // serve the promotion from memory.
        let second = ResultCache::new(Some(dir.clone()));
        let (hit, tier) = second.get("beef").unwrap();
        assert_eq!(*hit, "{\"x\": 1}");
        assert_eq!(tier, CacheTier::Disk);
        let (_, tier) = second.get("beef").unwrap();
        assert_eq!(tier, CacheTier::Memory);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn non_hex_ids_never_touch_the_filesystem() {
        let cache = ResultCache::new(Some(PathBuf::from("/nonexistent-grserve-dir")));
        assert!(cache.get("../../etc/passwd").is_none());
        cache.put("../escape", Arc::new("x".to_string()));
        assert!(!Path::new("/nonexistent-grserve-dir").exists());
        // Memory tier still works for the odd key.
        assert!(cache.get("../escape").is_some());
    }

    #[test]
    fn budget_evicts_least_recently_used_files_first() {
        let dir = temp_dir("lru");
        // Budget fits two 10-byte payloads, not three.
        let cache = ResultCache::with_budget(Some(dir.clone()), 25);
        let ten = Arc::new("0123456789".to_string());
        cache.put("aa", Arc::clone(&ten));
        cache.put("bb", Arc::clone(&ten));
        // Refresh "aa" so "bb" is now the least recently used.
        assert!(cache.get("aa").is_some());
        cache.put("cc", Arc::clone(&ten));

        assert_eq!(cache.evictions(), 1);
        assert!(dir.join("aa.json").exists(), "recently used entry evicted");
        assert!(!dir.join("bb.json").exists(), "LRU entry survived");
        assert!(dir.join("cc.json").exists(), "newest entry evicted");
        assert!(cache.disk_bytes() <= 25);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn startup_scan_enforces_a_shrunken_budget() {
        let dir = temp_dir("shrink");
        let big = ResultCache::with_budget(Some(dir.clone()), 1024);
        for id in ["aa", "bb", "cc", "dd"] {
            big.put(id, Arc::new("0123456789".to_string()));
        }
        drop(big);

        // Restart with room for only two files: the scan must trim to
        // budget immediately, keeping the newest-mtime entries.
        let small = ResultCache::with_budget(Some(dir.clone()), 25);
        assert_eq!(small.evictions(), 2, "startup scan should evict down to budget");
        assert!(small.disk_bytes() <= 25);
        let survivors = fs::read_dir(&dir).unwrap().count();
        assert_eq!(survivors, 2);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn damaged_disk_files_are_deleted_and_recomputed() {
        let id = "c0ffee";
        let payload = "{\"misses\": [1, 2, 3]}";
        for tag in ["truncated", "flipped", "legacy"] {
            let dir = temp_dir(tag);
            ResultCache::new(Some(dir.clone())).put(id, Arc::new(payload.to_string()));
            let path = dir.join(format!("{id}.json"));
            let mut bytes = fs::read(&path).unwrap();
            match tag {
                "truncated" => bytes.truncate(bytes.len() - 3),
                "flipped" => *bytes.last_mut().unwrap() ^= 0x01,
                _ => {
                    // A file from before the digest line existed.
                    let line = bytes.iter().position(|&b| b == b'\n').unwrap();
                    bytes.drain(..=line);
                }
            }
            fs::write(&path, bytes).unwrap();

            // A fresh instance must refuse the damaged file, delete it,
            // and count it, rather than serve or promote it.
            let cache = ResultCache::new(Some(dir.clone()));
            assert!(cache.get(id).is_none(), "{tag}: damaged file served");
            assert!(!path.exists(), "{tag}: damaged file left in place");
            assert_eq!(cache.corrupt(), 1, "{tag}: corruption not counted");
            assert_eq!(cache.disk_bytes(), 0, "{tag}: index kept the damaged entry");
            assert!(cache.get(id).is_none(), "{tag}: damaged payload promoted to memory");

            // Recomputing stores a good file that round-trips.
            cache.put(id, Arc::new(payload.to_string()));
            let (hit, tier) = ResultCache::new(Some(dir.clone())).get(id).unwrap();
            assert_eq!(*hit, payload, "{tag}");
            assert_eq!(tier, CacheTier::Disk, "{tag}");
            fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn oversized_single_entry_is_kept() {
        let dir = temp_dir("oversize");
        let cache = ResultCache::with_budget(Some(dir.clone()), 4);
        cache.put("ee", Arc::new("way over budget".to_string()));
        assert!(dir.join("ee.json").exists(), "newest entry must never self-evict");
        fs::remove_dir_all(dir).ok();
    }
}
