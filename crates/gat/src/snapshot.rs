//! Persistent GAT index snapshots.
//!
//! Building a [`GatIndex`] is expensive relative to querying it. This
//! module serializes a built index — the traversal half (grid, HICL,
//! ITL) once, then each verification part's TAS and APL — into one
//! versioned, checksummed binary snapshot keyed by
//! [`Dataset::content_hash`], so a restart *loads* instead of
//! *builds*. Every shard count uses the same single-file layout.
//!
//! Safety over speed: a snapshot is only ever used when every check
//! passes — magic, format version, payload checksum
//! ([`atsq_storage::page::crc32`], the same CRC the page store uses),
//! dataset content hash, GAT configuration, part layout, and
//! cross-component consistency. Any mismatch yields a descriptive
//! error and the caller falls back to a fresh build of the whole
//! index: the worst possible outcome of a corrupt or stale snapshot is
//! a rebuild, never a wrong answer.
//!
//! ## File format
//!
//! ```text
//! offset 0   [u8; 8]  magic b"ATSQSNAP"
//! offset 8   u16 LE   format version (currently 2)
//! offset 10  u8       kind (1 = index; every other value is rejected)
//! offset 11  u8       reserved (written as 0)
//! offset 12  u64 LE   content hash of the dataset the payload serves
//! offset 20  u32 LE   CRC-32 of the payload
//! offset 24  u64 LE   payload length in bytes
//! offset 32  ...      payload
//! ```
//!
//! The payload is the [`GatConfig`], the part count `S` (varint), the
//! [`Partition`] (one byte), the grid geometry, the HICL and the ITL,
//! then `S` (TAS, APL) pairs in part order — each component through
//! its own strict `encode`/`decode` pair. Part *membership* is not
//! persisted: partitioning is a cheap deterministic function of the
//! dataset, so the loader re-runs it and rejects a file whose part
//! sizes disagree with it. Version 1 files (a single-index kind plus
//! a shard-manifest kind) fail the version check and are rebuilt.
//!
//! [`IndexCache`] wraps the format in a directory-level API
//! (`load_or_build`, `save_index`, `entries`) used by `atsq index
//! build`, `atsq serve --index-cache` and `ServiceConfig::index_cache`.

use crate::apl::Apl;
use crate::config::GatConfig;
use crate::hicl::Hicl;
use crate::index::GatIndex;
use crate::itl::Itl;
use crate::paged::AplStorage;
use crate::sharded::{membership, Part, Partition};
use crate::tas::Tas;
use atsq_grid::Grid;
use atsq_storage::codec::{get_varint_u64, put_varint_u64};
use atsq_storage::page::crc32;
use atsq_types::{Dataset, Error, Rect, Result};
use std::io::Read;
use std::path::{Path, PathBuf};

/// Leading magic of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ATSQSNAP";

/// Format version this build writes and reads.
pub const SNAPSHOT_VERSION: u16 = 2;

/// Header length in bytes (see the module docs for the layout).
pub const SNAPSHOT_HEADER_LEN: usize = 32;

const KIND_INDEX: u8 = 1;

fn corrupt(msg: impl Into<String>) -> Error {
    Error::Storage(msg.into())
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

fn frame(dataset_hash: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SNAPSHOT_HEADER_LEN + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.push(KIND_INDEX);
    out.push(0);
    out.extend_from_slice(&dataset_hash.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parsed and checksum-verified snapshot framing.
struct Framed<'a> {
    dataset_hash: u64,
    payload: &'a [u8],
}

/// Validates everything that can be validated without a dataset:
/// magic, version, length, checksum. Each failure mode gets a
/// distinct, descriptive error.
fn parse_frame(bytes: &[u8]) -> Result<Framed<'_>> {
    if bytes.len() < SNAPSHOT_HEADER_LEN {
        return Err(corrupt(format!(
            "snapshot truncated: {} bytes is shorter than the {SNAPSHOT_HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    if bytes[0..8] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic: not an ATSQ index snapshot"));
    }
    let version = u16::from_le_bytes(bytes[8..10].try_into().expect("2-byte slice"));
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(format!(
            "unsupported snapshot version {version} (this build reads version {SNAPSHOT_VERSION})"
        )));
    }
    let kind = bytes[10];
    if kind != KIND_INDEX {
        return Err(corrupt(format!("unknown snapshot kind {kind}")));
    }
    let dataset_hash = u64::from_le_bytes(bytes[12..20].try_into().expect("8-byte slice"));
    let stored_crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4-byte slice"));
    let payload_len = u64::from_le_bytes(bytes[24..32].try_into().expect("8-byte slice"));
    let available = (bytes.len() - SNAPSHOT_HEADER_LEN) as u64;
    if payload_len > available {
        return Err(corrupt(format!(
            "snapshot truncated: header declares a {payload_len}-byte payload, \
             only {available} bytes follow"
        )));
    }
    if payload_len < available {
        return Err(corrupt(format!(
            "snapshot corrupt: {} trailing bytes after the declared payload",
            available - payload_len
        )));
    }
    let payload = &bytes[SNAPSHOT_HEADER_LEN..];
    let computed = crc32(payload);
    if computed != stored_crc {
        return Err(corrupt(format!(
            "snapshot corrupt: payload checksum mismatch \
             (stored 0x{stored_crc:08x}, computed 0x{computed:08x})"
        )));
    }
    Ok(Framed {
        dataset_hash,
        payload,
    })
}

fn check_dataset_hash(framed: &Framed<'_>, current: u64) -> Result<()> {
    if framed.dataset_hash != current {
        return Err(corrupt(format!(
            "stale snapshot: built for dataset {:016x}, current dataset is {current:016x}",
            framed.dataset_hash
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Config and grid codecs
// ---------------------------------------------------------------------

fn encode_config(config: &GatConfig, out: &mut Vec<u8>) {
    out.push(config.grid_level);
    out.push(config.memory_level);
    put_varint_u64(out, config.tas_intervals as u64);
    put_varint_u64(out, config.lambda as u64);
    put_varint_u64(out, config.lb_cells as u64);
    out.push(u8::from(config.use_tas) | (u8::from(config.tight_lower_bound) << 1));
}

fn decode_config(buf: &[u8], pos: &mut usize) -> Option<GatConfig> {
    let grid_level = *buf.get(*pos)?;
    let memory_level = *buf.get(*pos + 1)?;
    *pos += 2;
    let tas_intervals = usize::try_from(get_varint_u64(buf, pos)?).ok()?;
    let lambda = usize::try_from(get_varint_u64(buf, pos)?).ok()?;
    let lb_cells = usize::try_from(get_varint_u64(buf, pos)?).ok()?;
    let flags = *buf.get(*pos)?;
    *pos += 1;
    if flags > 0b11 {
        return None;
    }
    Some(GatConfig {
        grid_level,
        memory_level,
        tas_intervals,
        lambda,
        lb_cells,
        use_tas: flags & 1 != 0,
        tight_lower_bound: flags & 2 != 0,
    })
}

fn encode_grid(grid: &Grid, out: &mut Vec<u8>) {
    let r = grid.region();
    for v in [r.min.x, r.min.y, r.max.x, r.max.y] {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out.push(grid.max_level());
}

fn decode_grid(buf: &[u8], pos: &mut usize) -> Option<Grid> {
    let mut coords = [0.0f64; 4];
    for c in &mut coords {
        let end = pos.checked_add(8)?;
        let bytes: [u8; 8] = buf.get(*pos..end)?.try_into().ok()?;
        *c = f64::from_bits(u64::from_le_bytes(bytes));
        *pos = end;
    }
    let level = *buf.get(*pos)?;
    *pos += 1;
    let [min_x, min_y, max_x, max_y] = coords;
    // Pre-validate what Grid::new would panic on.
    if !coords.iter().all(|c| c.is_finite())
        || max_x <= min_x
        || max_y <= min_y
        || level == 0
        || level > Grid::MAX_SUPPORTED_LEVEL
    {
        return None;
    }
    Some(Grid::new(
        Rect::from_bounds(min_x, min_y, max_x, max_y),
        level,
    ))
}

fn partition_tag(partition: Partition) -> u8 {
    match partition {
        Partition::Hash => 0,
        Partition::Spatial => 1,
    }
}

fn partition_from_tag(tag: u8) -> Option<Partition> {
    match tag {
        0 => Some(Partition::Hash),
        1 => Some(Partition::Spatial),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Index snapshots
// ---------------------------------------------------------------------

/// Serializes a built index into snapshot bytes for `dataset` (the
/// dataset the index was built from — its content hash keys the
/// snapshot).
///
/// Only in-memory indexes snapshot: the paged APL / cold-HICL backends
/// hold their own page files and are rejected with
/// [`Error::InvalidConfig`].
pub fn write_index(index: &GatIndex, dataset: &Dataset) -> Result<Vec<u8>> {
    Ok(frame(dataset.content_hash(), &encode_index(index)?))
}

fn encode_index(index: &GatIndex) -> Result<Vec<u8>> {
    let parts: Vec<&Part> = index.parts().iter().collect();
    encode_payload(index, &parts)
}

/// The payload of `index` with `parts` as its verification half —
/// always `index.parts()` in order, except in tests that craft files.
fn encode_payload(index: &GatIndex, parts: &[&Part]) -> Result<Vec<u8>> {
    if index.cold_hicl().is_some() {
        return Err(Error::InvalidConfig(
            "indexes with paged cold HICL levels cannot be snapshotted".into(),
        ));
    }
    let mut payload = Vec::new();
    encode_config(index.config(), &mut payload);
    put_varint_u64(&mut payload, parts.len() as u64);
    payload.push(partition_tag(index.partition()));
    encode_grid(index.grid(), &mut payload);
    index.hicl().encode(&mut payload);
    index.itl().encode(&mut payload);
    for part in parts {
        let AplStorage::Memory(apl) = &part.apl else {
            return Err(Error::InvalidConfig(
                "paged APL backends cannot be snapshotted; build the index in memory".into(),
            ));
        };
        part.tas.encode(&mut payload);
        apl.encode(&mut payload);
    }
    Ok(payload)
}

/// Decodes and fully validates a snapshot against the dataset it is
/// supposed to serve. Every failure is a descriptive error; callers
/// treat any error as "no usable snapshot" and rebuild.
pub fn read_index(bytes: &[u8], dataset: &Dataset) -> Result<GatIndex> {
    read_index_with_hash(bytes, dataset, dataset.content_hash())
}

/// [`read_index`] with the dataset's content hash precomputed — the
/// hash is a full scan of every point, and the cache's load path
/// already computed it to derive the snapshot filename.
fn read_index_with_hash(bytes: &[u8], dataset: &Dataset, dataset_hash: u64) -> Result<GatIndex> {
    let framed = parse_frame(bytes)?;
    check_dataset_hash(&framed, dataset_hash)?;
    let buf = framed.payload;
    let mut pos = 0usize;
    let component = |name: &str| corrupt(format!("snapshot corrupt: {name} failed to decode"));
    let config = decode_config(buf, &mut pos).ok_or_else(|| component("GAT configuration"))?;
    config.validate()?;
    let shards = get_varint_u64(buf, &mut pos)
        .and_then(|n| usize::try_from(n).ok())
        .filter(|&n| n >= 1)
        .ok_or_else(|| component("part count"))?;
    let partition = buf
        .get(pos)
        .copied()
        .and_then(partition_from_tag)
        .ok_or_else(|| component("partitioner"))?;
    pos += 1;
    let grid = decode_grid(buf, &mut pos).ok_or_else(|| component("grid geometry"))?;
    let hicl = Hicl::decode(buf, &mut pos).ok_or_else(|| component("HICL"))?;
    let itl = Itl::decode(buf, &mut pos).ok_or_else(|| component("ITL"))?;
    // No preallocation: `shards` is untrusted, and every part costs at
    // least two bytes, so a huge count fails on the buffer's end.
    let mut parts = Vec::new();
    for p in 0..shards {
        let tas = Tas::decode(buf, &mut pos).ok_or_else(|| component(&format!("TAS {p}")))?;
        let apl = Apl::decode(buf, &mut pos).ok_or_else(|| component(&format!("APL {p}")))?;
        parts.push((tas, apl));
    }
    if pos != buf.len() {
        return Err(corrupt(format!(
            "snapshot corrupt: {} undecoded bytes after the last component",
            buf.len() - pos
        )));
    }
    // Cross-component consistency: a snapshot that decodes but whose
    // parts disagree would answer queries wrongly, so it is rejected.
    let inconsistent = |detail: String| corrupt(format!("snapshot inconsistent: {detail}"));
    if grid.max_level() != config.grid_level {
        return Err(inconsistent(format!(
            "grid depth {} vs configured grid_level {}",
            grid.max_level(),
            config.grid_level
        )));
    }
    if hicl.levels() != config.grid_level {
        return Err(inconsistent(format!(
            "HICL depth {} vs configured grid_level {}",
            hicl.levels(),
            config.grid_level
        )));
    }
    if itl.leaf_level() != config.grid_level {
        return Err(inconsistent(format!(
            "ITL leaf level {} vs configured grid_level {}",
            itl.leaf_level(),
            config.grid_level
        )));
    }
    let membership = membership(dataset, shards, partition);
    for (p, ((tas, apl), members)) in parts.iter().zip(&membership).enumerate() {
        if tas.len() != members.len() || apl.len() != members.len() {
            return Err(corrupt(format!(
                "snapshot part sizes disagree with the partition: part {p} has TAS for {} \
                 and APL for {} trajectories, the {partition} partitioner assigns it {}",
                tas.len(),
                apl.len(),
                members.len()
            )));
        }
    }
    // Range checks on every decoded reference into the dataset: a
    // CRC-valid payload from a buggy or version-skewed writer must be
    // rejected here, not panic with an out-of-bounds index inside a
    // query worker.
    if let Some(max_tr) = itl.max_trajectory_index() {
        if max_tr >= dataset.len() {
            return Err(inconsistent(format!(
                "ITL references trajectory {max_tr}, dataset has {}",
                dataset.len()
            )));
        }
    }
    for ((_, apl), members) in parts.iter().zip(&membership) {
        for (local, &tr) in members.iter().enumerate() {
            let points = dataset.trajectory(tr).len();
            if let Some(max_pos) = apl.trajectory(local).max_position() {
                if max_pos as usize >= points {
                    return Err(inconsistent(format!(
                        "APL of trajectory {} references point {max_pos}, \
                         the trajectory has {points} points",
                        tr.index()
                    )));
                }
            }
        }
    }
    Ok(GatIndex::from_parts(
        config,
        partition,
        grid,
        hicl,
        itl,
        parts,
        &membership,
    ))
}

// ---------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------

/// Header-level description of one snapshot file, produced by
/// [`inspect`] after full checksum validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Always `"index"`: format version 2 has one kind.
    pub kind: &'static str,
    /// Format version the file was written with.
    pub version: u16,
    /// Content hash of the dataset the snapshot serves.
    pub dataset_hash: u64,
    /// Payload size in bytes (file size minus the header).
    pub payload_bytes: usize,
}

/// Reads and validates a snapshot file's framing (magic, version,
/// checksum) without needing the dataset it serves.
pub fn inspect(path: &Path) -> Result<SnapshotInfo> {
    let bytes = read_file(path)?;
    let framed = parse_frame(&bytes)?;
    Ok(SnapshotInfo {
        kind: "index",
        version: SNAPSHOT_VERSION,
        dataset_hash: framed.dataset_hash,
        payload_bytes: framed.payload.len(),
    })
}

// ---------------------------------------------------------------------
// The directory-level cache
// ---------------------------------------------------------------------

/// How [`IndexCache::load_or_build`] obtained its engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The snapshot validated and was loaded — no index build ran.
    Loaded,
    /// The index was built fresh. The string is a complete
    /// operator-readable account: why the snapshot did not load and
    /// whether the replacement snapshot was saved — render it
    /// verbatim.
    Rebuilt(String),
}

impl CacheOutcome {
    /// Whether the engine came from a snapshot.
    pub fn loaded(&self) -> bool {
        matches!(self, CacheOutcome::Loaded)
    }
}

/// A directory of index snapshots keyed by dataset content hash.
///
/// Filenames are derived from the dataset hash, the part layout and
/// the configuration, so one directory can cache snapshots for many
/// datasets and layouts side by side. Writes go through a temp file +
/// rename, so a crash mid-save leaves no truncated snapshot under the
/// final name.
#[derive(Debug, Clone)]
pub struct IndexCache {
    dir: PathBuf,
}

impl IndexCache {
    /// A cache rooted at `dir`. The directory is created on first save.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        IndexCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    // Filenames are keyed by dataset hash, part layout AND a digest of
    // the GAT configuration, so two embedders sharing one cache
    // directory with different configs get coexisting snapshots
    // instead of overwriting each other's on every start. The payload
    // stays the source of truth — `check_config` and `check_layout`
    // still validate it on load.
    fn index_path(
        &self,
        dataset_hash: u64,
        config: &GatConfig,
        shards: usize,
        partition: Partition,
    ) -> PathBuf {
        let cfg = config_digest(config);
        self.dir.join(format!(
            "gat-{dataset_hash:016x}-s{shards}-{partition}-c{cfg:08x}.idx"
        ))
    }

    /// Serializes `index` (built from `dataset`) into the cache,
    /// returning the snapshot path.
    pub fn save_index(&self, dataset: &Dataset, index: &GatIndex) -> Result<PathBuf> {
        self.save_index_hashed(dataset.content_hash(), index)
    }

    fn save_index_hashed(&self, hash: u64, index: &GatIndex) -> Result<PathBuf> {
        let path = self.index_path(hash, index.config(), index.shard_count(), index.partition());
        let bytes = frame(hash, &encode_index(index)?);
        write_file(&path, &bytes)?;
        Ok(path)
    }

    /// Loads and validates the snapshot for `dataset`, requiring it to
    /// have been built with exactly `config` and `shards` parts cut by
    /// `partition`. Any mismatch — missing file, corruption,
    /// staleness, different configuration or layout — is an error;
    /// use [`IndexCache::load_or_build`] to fall back to a fresh build
    /// instead.
    pub fn load_index(
        &self,
        dataset: &Dataset,
        config: &GatConfig,
        shards: usize,
        partition: Partition,
    ) -> Result<GatIndex> {
        self.load_index_hashed(dataset, dataset.content_hash(), config, shards, partition)
    }

    /// Hash once per start: it keys the filename, validates the
    /// header, and (on the fallback path) keys the replacement
    /// snapshot — `content_hash` is a full scan of every point.
    fn load_index_hashed(
        &self,
        dataset: &Dataset,
        hash: u64,
        config: &GatConfig,
        shards: usize,
        partition: Partition,
    ) -> Result<GatIndex> {
        let path = self.index_path(hash, config, shards, partition);
        let index = read_index_with_hash(&read_file(&path)?, dataset, hash)?;
        check_config(index.config(), config)?;
        check_layout(&index, shards, partition)?;
        Ok(index)
    }

    /// The serving entry point: load the snapshot if one validates,
    /// otherwise build fresh and (over)write the snapshot for the next
    /// start. Falls back on *any* load error — and a *save* failure
    /// (unwritable directory, full disk) never discards the index that
    /// was just built; it is reported in the outcome instead. The
    /// worst a bad snapshot or cache directory costs is the build that
    /// was going to happen anyway. `shards == 0` fails the build with
    /// [`Error::InvalidConfig`].
    pub fn load_or_build(
        &self,
        dataset: &Dataset,
        config: GatConfig,
        shards: usize,
        partition: Partition,
    ) -> Result<(GatIndex, CacheOutcome)> {
        let hash = dataset.content_hash();
        match self.load_index_hashed(dataset, hash, &config, shards, partition) {
            Ok(index) => Ok((index, CacheOutcome::Loaded)),
            Err(why) => {
                let index = GatIndex::build_sharded(dataset, config, shards, partition)?;
                let mut note = format!("built index fresh ({why})");
                match self.save_index_hashed(hash, &index) {
                    Ok(_) => note.push_str("; snapshot saved"),
                    Err(save) => note.push_str(&format!("; snapshot not saved: {save}")),
                }
                Ok((index, CacheOutcome::Rebuilt(note)))
            }
        }
    }

    /// Snapshot files currently in the cache directory (sorted by
    /// name). An absent directory is an empty cache, not an error.
    pub fn entries(&self) -> Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(&self.dir, &e)),
        };
        for entry in entries {
            let path = entry.map_err(|e| io_err(&self.dir, &e))?.path();
            if path.extension().is_some_and(|e| e == "idx") {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }
}

/// FNV-1a digest of the encoded configuration, truncated to 32 bits
/// for the filename key. Collisions are harmless: the full config in
/// the payload is still compared on load.
fn config_digest(config: &GatConfig) -> u32 {
    let mut bytes = Vec::new();
    encode_config(config, &mut bytes);
    let mut h = atsq_types::Fnv64::new();
    h.write(&bytes);
    let h = h.finish();
    (h ^ (h >> 32)) as u32
}

fn check_config(stored: &GatConfig, requested: &GatConfig) -> Result<()> {
    if stored != requested {
        return Err(corrupt(format!(
            "snapshot built with a different GAT configuration \
             (stored {stored:?}, requested {requested:?})"
        )));
    }
    Ok(())
}

fn check_layout(index: &GatIndex, shards: usize, partition: Partition) -> Result<()> {
    if index.shard_count() != shards || index.partition() != partition {
        return Err(corrupt(format!(
            "stale snapshot: it holds {} {} parts, requested {shards} {partition} parts",
            index.shard_count(),
            index.partition()
        )));
    }
    Ok(())
}

fn io_err(path: &Path, e: &std::io::Error) -> Error {
    Error::Storage(format!("snapshot {}: {e}", path.display()))
}

fn read_file(path: &Path) -> Result<Vec<u8>> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err(path, &e))?;
    Ok(bytes)
}

/// Writes via a temp file + rename so readers never observe a torn
/// snapshot under the final name.
fn write_file(path: &Path, bytes: &[u8]) -> Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
    // The temp name is unique per process AND per write: two servers
    // cold-starting against one shared cache dir (or two threads in
    // one process) each write their own temp file, so neither can
    // rename the other's half-written bytes into the final name.
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    // ordering: Relaxed — unique-suffix ticket; fetch_add atomicity
    // alone guarantees distinct temp names.
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}-{seq}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| io_err(&tmp, &e))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        io_err(path, &e)
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_types::{ActivitySet, DatasetBuilder, Point, TrajectoryPoint};

    fn dataset(n: usize, seed: u64) -> Dataset {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        for i in 0..10 {
            b.observe_activity(&format!("act{i}"));
        }
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..n {
            let len = 1 + (next() % 4) as usize;
            let pts = (0..len)
                .map(|_| {
                    let px = (next() % 1000) as f64 / 10.0;
                    let py = (next() % 1000) as f64 / 10.0;
                    let acts = ActivitySet::from_raw([(next() % 10) as u32, (next() % 10) as u32]);
                    TrajectoryPoint::new(Point::new(px, py), acts)
                })
                .collect();
            b.push_trajectory(pts);
        }
        b.finish().unwrap()
    }

    const HASH: Partition = Partition::Hash;

    fn small_config() -> GatConfig {
        GatConfig {
            grid_level: 5,
            memory_level: 4,
            ..GatConfig::default()
        }
    }

    fn temp_cache(tag: &str) -> IndexCache {
        let dir = std::env::temp_dir().join(format!("atsq-snapshot-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        IndexCache::new(dir)
    }

    fn queries(d: &Dataset) -> Vec<atsq_types::Query> {
        use atsq_types::{Query, QueryPoint};
        assert!(!d.is_empty());
        [(10.0, 10.0), (80.0, 30.0), (50.0, 90.0)]
            .iter()
            .map(|&(x, y)| {
                Query::new(vec![
                    QueryPoint::new(Point::new(x, y), ActivitySet::from_raw([0, 1])),
                    QueryPoint::new(Point::new(x + 5.0, y), ActivitySet::from_raw([2])),
                ])
                .unwrap()
            })
            .collect()
    }

    fn assert_same_answers(built: &GatIndex, loaded: &GatIndex, d: &Dataset) {
        use crate::search::{atsq, atsq_range, oatsq, oatsq_range};
        for q in queries(d) {
            for k in [1usize, 3, 9] {
                assert_eq!(atsq(built, d, &q, k), atsq(loaded, d, &q, k));
                assert_eq!(oatsq(built, d, &q, k), oatsq(loaded, d, &q, k));
            }
            for tau in [5.0f64, 50.0] {
                assert_eq!(
                    atsq_range(built, d, &q, tau),
                    atsq_range(loaded, d, &q, tau)
                );
                assert_eq!(
                    oatsq_range(built, d, &q, tau),
                    oatsq_range(loaded, d, &q, tau)
                );
            }
        }
    }

    #[test]
    fn index_snapshot_roundtrips_byte_identically() {
        let d = dataset(40, 0x5EED);
        let built = GatIndex::build_with(&d, small_config()).unwrap();
        let bytes = write_index(&built, &d).unwrap();
        // Serialization is deterministic.
        assert_eq!(bytes, write_index(&built, &d).unwrap());
        let loaded = read_index(&bytes, &d).unwrap();
        assert_eq!(loaded.config(), built.config());
        assert_eq!(loaded.len(), built.len());
        assert_same_answers(&built, &loaded, &d);
        // A re-serialized loaded index produces the same bytes.
        assert_eq!(bytes, write_index(&loaded, &d).unwrap());
    }

    #[test]
    fn truncated_snapshot_is_rejected_with_distinct_error() {
        let d = dataset(12, 1);
        let built = GatIndex::build_with(&d, small_config()).unwrap();
        let bytes = write_index(&built, &d).unwrap();
        // Shorter than the header.
        let err = read_index(&bytes[..16], &d).unwrap_err().to_string();
        assert!(err.contains("truncated") && err.contains("header"), "{err}");
        // Header intact, payload cut short.
        let err = read_index(&bytes[..bytes.len() - 3], &d)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("truncated") && err.contains("payload"),
            "{err}"
        );
        // Trailing garbage is also flagged.
        let mut long = bytes.clone();
        long.push(0);
        let err = read_index(&long, &d).unwrap_err().to_string();
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn flipped_bytes_are_rejected_with_checksum_error() {
        let d = dataset(12, 2);
        let built = GatIndex::build_with(&d, small_config()).unwrap();
        let bytes = write_index(&built, &d).unwrap();
        // Flip one payload byte at several offsets: always caught by
        // the CRC before any decoding happens.
        for offset in [0usize, 7, 101] {
            let mut bad = bytes.clone();
            let i = SNAPSHOT_HEADER_LEN + offset % (bytes.len() - SNAPSHOT_HEADER_LEN);
            bad[i] ^= 0x40;
            let err = read_index(&bad, &d).unwrap_err().to_string();
            assert!(err.contains("checksum mismatch"), "offset {offset}: {err}");
        }
        // A flipped magic byte reports bad magic, not a checksum error.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        let err = read_index(&bad, &d).unwrap_err().to_string();
        assert!(err.contains("bad magic"), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected_with_version_error() {
        let d = dataset(12, 3);
        let built = GatIndex::build_with(&d, small_config()).unwrap();
        let mut bytes = write_index(&built, &d).unwrap();
        bytes[8..10].copy_from_slice(&99u16.to_le_bytes());
        let err = read_index(&bytes, &d).unwrap_err().to_string();
        assert!(
            err.contains("version 99") && err.contains("reads version 2"),
            "{err}"
        );
    }

    #[test]
    fn stale_dataset_hash_is_rejected_with_stale_error() {
        let d = dataset(12, 4);
        let built = GatIndex::build_with(&d, small_config()).unwrap();
        let bytes = write_index(&built, &d).unwrap();
        let other = dataset(12, 5);
        let err = read_index(&bytes, &other).unwrap_err().to_string();
        assert!(err.contains("stale snapshot"), "{err}");
        // An unknown kind (such as a version-1 shard manifest's) is its
        // own error too.
        let mut manifest = bytes.clone();
        manifest[10] = 2;
        let err = read_index(&manifest, &d).unwrap_err().to_string();
        assert!(err.contains("unknown snapshot kind 2"), "{err}");
    }

    /// A CRC-valid snapshot whose components reference outside the
    /// dataset (possible from a buggy or version-skewed writer, never
    /// from this one) must be rejected at load, not panic inside a
    /// query worker.
    #[test]
    fn out_of_range_references_are_rejected_at_load() {
        use atsq_grid::CellId;
        use atsq_types::{ActivityId, Trajectory, TrajectoryId};
        let d = dataset(5, 11);
        let built = GatIndex::build_with(&d, small_config()).unwrap();
        let leaf_level = small_config().grid_level;
        let grid = built.grid().clone();
        let tas = crate::tas::Tas::build(
            d.trajectories().iter().map(|tr| tr.all_activities()),
            small_config().tas_intervals,
        );

        // ITL posting pointing at trajectory 99 of a 5-trajectory set.
        let evil_itl = Itl::build(
            leaf_level,
            vec![(
                CellId {
                    level: leaf_level,
                    code: 0,
                },
                ActivityId(0),
                TrajectoryId(99),
            )],
        );
        let all: Vec<TrajectoryId> = d.trajectories().iter().map(|t| t.id).collect();
        let index = GatIndex::from_parts(
            small_config(),
            Partition::Hash,
            grid.clone(),
            Hicl::build(leaf_level, vec![]),
            evil_itl,
            vec![(tas.clone(), Apl::build(d.trajectories()))],
            std::slice::from_ref(&all),
        );
        let err = read_index(&write_index(&index, &d).unwrap(), &d)
            .unwrap_err()
            .to_string();
        assert!(err.contains("ITL references trajectory 99"), "{err}");

        // APL posting pointing past the end of its trajectory.
        let mut long = d.trajectories().to_vec();
        let mut points = long[0].points.clone();
        for _ in 0..8 {
            points.push(points[0].clone());
        }
        long[0] = Trajectory::new(TrajectoryId(0), points);
        let index = GatIndex::from_parts(
            small_config(),
            Partition::Hash,
            grid,
            Hicl::build(leaf_level, vec![]),
            Itl::build(leaf_level, vec![]),
            vec![(tas, Apl::build(&long))],
            &[all],
        );
        let err = read_index(&write_index(&index, &d).unwrap(), &d)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("APL of trajectory 0 references point"),
            "{err}"
        );
    }

    #[test]
    fn cache_load_or_build_falls_back_and_then_loads() {
        let d = dataset(30, 6);
        let cache = temp_cache("fallback");
        // Cold cache: builds and saves.
        let (built, outcome) = cache.load_or_build(&d, small_config(), 1, HASH).unwrap();
        assert!(!outcome.loaded(), "{outcome:?}");
        // Warm cache: loads, answers identically.
        let (loaded, outcome) = cache.load_or_build(&d, small_config(), 1, HASH).unwrap();
        assert!(outcome.loaded(), "{outcome:?}");
        assert_same_answers(&built, &loaded, &d);
        // Corrupt the snapshot on disk: next start falls back to a
        // fresh build (and repairs the snapshot).
        let path = cache.index_path(d.content_hash(), &small_config(), 1, HASH);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (rebuilt, outcome) = cache.load_or_build(&d, small_config(), 1, HASH).unwrap();
        match &outcome {
            CacheOutcome::Rebuilt(why) => {
                assert!(why.contains("checksum"), "{why}")
            }
            CacheOutcome::Loaded => panic!("corrupt snapshot must not load"),
        }
        assert_same_answers(&built, &rebuilt, &d);
        let (_, outcome) = cache.load_or_build(&d, small_config(), 1, HASH).unwrap();
        assert!(outcome.loaded(), "repaired snapshot should load");
        // A different config cannot reuse the snapshot — and because
        // filenames carry a config digest, the two configurations
        // coexist in one directory instead of overwriting each other
        // on every alternating start.
        let other = GatConfig {
            grid_level: 6,
            memory_level: 4,
            ..GatConfig::default()
        };
        let (_, outcome) = cache.load_or_build(&d, other, 1, HASH).unwrap();
        assert!(!outcome.loaded(), "{outcome:?}");
        let (_, outcome) = cache.load_or_build(&d, other, 1, HASH).unwrap();
        assert!(outcome.loaded(), "second config now cached");
        let (_, outcome) = cache.load_or_build(&d, small_config(), 1, HASH).unwrap();
        assert!(outcome.loaded(), "first config still cached");
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    /// Every shard count uses the one file layout: a sharded index
    /// round-trips through the cache, a different layout misses it,
    /// and any damage rebuilds the whole index.
    #[test]
    fn sharded_cache_roundtrips_and_validates() {
        let d = dataset(40, 7);
        let cache = temp_cache("sharded");
        for partition in [Partition::Hash, Partition::Spatial] {
            let (built, outcome) = cache
                .load_or_build(&d, small_config(), 3, partition)
                .unwrap();
            assert!(!outcome.loaded());
            let (loaded, outcome) = cache
                .load_or_build(&d, small_config(), 3, partition)
                .unwrap();
            assert!(outcome.loaded(), "{outcome:?}");
            assert_eq!(loaded.shard_sizes(), built.shard_sizes());
            assert_same_answers(&built, &loaded, &d);
            // One file per layout, byte-identical on re-save.
            assert_eq!(
                write_index(&built, &d).unwrap(),
                write_index(&loaded, &d).unwrap()
            );
        }
        // A different shard count misses the cache and rebuilds.
        let (_, outcome) = cache.load_or_build(&d, small_config(), 2, HASH).unwrap();
        assert!(!outcome.loaded());
        assert_eq!(cache.entries().unwrap().len(), 3, "one file per layout");
        // A damaged file fails the strict load and rebuilds the whole
        // index on the fallback path.
        let path = cache.index_path(d.content_hash(), &small_config(), 2, HASH);
        std::fs::remove_file(&path).unwrap();
        let err = cache.load_index(&d, &small_config(), 2, HASH).unwrap_err();
        assert!(err.to_string().contains("-s2-hash-"), "{err}");
        let (index, outcome) = cache.load_or_build(&d, small_config(), 2, HASH).unwrap();
        assert!(!outcome.loaded(), "a missing file cannot load");
        assert_eq!(index.shard_count(), 2);
        let (_, outcome) = cache.load_or_build(&d, small_config(), 2, HASH).unwrap();
        assert!(outcome.loaded(), "repaired snapshot should load");
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    /// A file whose part count disagrees with the requested layout, or
    /// whose part sizes disagree with the recomputed partition, is
    /// rejected with its own error.
    #[test]
    fn part_layout_mismatch_is_rejected() {
        let d = dataset(12, 13);
        let cache = temp_cache("layout");
        let index = GatIndex::build_sharded(&d, small_config(), 3, HASH).unwrap();
        // Part count: a 3-part file under the 2-part name.
        let three = cache.save_index(&d, &index).unwrap();
        let two = cache.index_path(d.content_hash(), &small_config(), 2, HASH);
        std::fs::copy(&three, &two).unwrap();
        let err = cache
            .load_index(&d, &small_config(), 2, HASH)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("holds 3 hash parts, requested 2 hash parts"),
            "{err}"
        );
        // Part sizes: the same parts in a different order.
        let sizes = index.shard_sizes();
        let (a, b) = (0..3)
            .flat_map(|a| (0..3).map(move |b| (a, b)))
            .find(|&(a, b)| sizes[a] != sizes[b])
            .expect("the hash partition of 12 trajectories is uneven");
        let mut parts: Vec<&Part> = index.parts().iter().collect();
        parts.swap(a, b);
        let payload = encode_payload(&index, &parts).unwrap();
        let err = read_index(&frame(d.content_hash(), &payload), &d)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("part sizes disagree with the partition"),
            "{err}"
        );
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    /// The decoder never panics: for S ∈ {1, 3}, every truncation and
    /// every strided payload mutation — re-framed with a valid CRC so
    /// it reaches the component decoders — yields `Ok` or a typed
    /// error.
    #[test]
    fn decoder_sweep_never_panics() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let d = dataset(9, 14);
        let hash = d.content_hash();
        for shards in [1usize, 3] {
            let index = GatIndex::build_sharded(&d, small_config(), shards, HASH).unwrap();
            let bytes = write_index(&index, &d).unwrap();
            let payload = &bytes[SNAPSHOT_HEADER_LEN..];
            let decode = |b: &[u8]| {
                catch_unwind(AssertUnwindSafe(|| read_index(b, &d).map(|_| ())))
                    .unwrap_or_else(|_| panic!("S={shards}: the decoder panicked"))
            };
            for len in 0..bytes.len() {
                assert!(
                    decode(&bytes[..len]).is_err(),
                    "S={shards}: file cut at {len}"
                );
            }
            for len in 0..payload.len() {
                let cut = frame(hash, &payload[..len]);
                assert!(decode(&cut).is_err(), "S={shards}: payload cut at {len}");
            }
            for offset in (0..payload.len()).step_by(3) {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut bad = payload.to_vec();
                    bad[offset] ^= flip;
                    let _ = decode(&frame(hash, &bad));
                }
            }
        }
    }

    /// An unusable cache directory must not abort startup: the engine
    /// was built successfully, so it is returned with the save failure
    /// reported in the outcome — "worst cost is the build", even when
    /// the cache cannot be written.
    #[test]
    fn unwritable_cache_still_serves_the_built_engine() {
        let d = dataset(15, 10);
        // A *file* where the cache directory should be: create_dir_all
        // and every write under it fail, loads fail with NotFound-ish
        // errors — but the built engine must come back anyway.
        let blocker =
            std::env::temp_dir().join(format!("atsq-snapshot-blocked-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let cache = IndexCache::new(&blocker);
        for shards in [1usize, 2] {
            let (index, outcome) = cache
                .load_or_build(&d, small_config(), shards, HASH)
                .unwrap();
            assert_eq!(index.len(), d.len());
            assert_eq!(index.shard_count(), shards);
            match &outcome {
                CacheOutcome::Rebuilt(why) => {
                    assert!(why.contains("snapshot not saved"), "{why}")
                }
                CacheOutcome::Loaded => panic!("nothing to load"),
            }
        }
        std::fs::remove_file(&blocker).ok();
    }

    #[test]
    fn inspect_reports_kind_and_entries_list_files() {
        let d = dataset(20, 8);
        let cache = temp_cache("inspect");
        assert!(cache.entries().unwrap().is_empty(), "cold cache is empty");
        let index = GatIndex::build_with(&d, small_config()).unwrap();
        let index_path = cache.save_index(&d, &index).unwrap();
        let sharded = GatIndex::build_sharded(&d, small_config(), 2, HASH).unwrap();
        let sharded_path = cache.save_index(&d, &sharded).unwrap();

        for path in [&index_path, &sharded_path] {
            let info = inspect(path).unwrap();
            assert_eq!(info.kind, "index");
            assert_eq!(info.version, SNAPSHOT_VERSION);
            assert_eq!(info.dataset_hash, d.content_hash());
            assert!(info.payload_bytes > 0);
        }

        let entries = cache.entries().unwrap();
        assert_eq!(entries.len(), 2, "{entries:?}");
        // Inspect flags a non-snapshot file cleanly.
        let junk = cache.dir().join("junk.idx");
        std::fs::write(&junk, b"not a snapshot").unwrap();
        assert!(inspect(&junk).is_err());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn paged_indexes_refuse_to_snapshot() {
        let d = dataset(10, 9);
        let index =
            GatIndex::build_paged(&d, small_config(), &crate::paged::PagedAplConfig::default())
                .unwrap();
        let err = write_index(&index, &d).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
    }
}
