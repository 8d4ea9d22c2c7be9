//! Building a [`CityRegistry`] from an on-disk cities directory.
//!
//! Layout (one subdirectory per city; the subdirectory name is the
//! [`CityId`]):
//!
//! ```text
//! <cities-dir>/
//!   tokyo/
//!     city.atsq      # the dataset (atsq text format)
//!     index/         # per-city IndexCache snapshot dir (created lazily)
//!   osaka/
//!     city.atsq
//!     index/
//! ```
//!
//! Cold loads read `city.atsq` and go through
//! [`IndexCache::load_or_build`], so a city whose snapshot is valid
//! starts in milliseconds; the first-ever load builds the index and
//! saves the snapshot for the next time.

use crate::registry::{CityId, CityRegistry, EngineFactory, LoadedCity, TenantError};
use atsq_core::{CacheOutcome, Engine, IndexCache, Partition};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Dataset file name expected inside each city subdirectory.
pub const CITY_DATASET_FILE: &str = "city.atsq";

/// Index snapshot directory name inside each city subdirectory.
pub const CITY_INDEX_DIR: &str = "index";

/// Options for [`registry_from_dir`].
#[derive(Debug, Clone)]
pub struct DiskRegistryOptions {
    /// Verification parts per city's GAT index; `0` fails every city
    /// load with [`atsq_types::Error::InvalidConfig`].
    pub shards: usize,
    /// Partitioning strategy when `shards > 1`.
    pub partition: Partition,
    /// Estimated resident-byte ceiling across `Ready` cities
    /// (`None` = never evict).
    pub memory_budget: Option<u64>,
    /// City used when requests name none; defaults to the
    /// alphabetically first subdirectory.
    pub default_city: Option<String>,
}

impl Default for DiskRegistryOptions {
    fn default() -> Self {
        DiskRegistryOptions {
            shards: 1,
            partition: Partition::Hash,
            memory_budget: None,
            default_city: None,
        }
    }
}

/// Scans `dir` for city subdirectories and returns a registry with one
/// lazily-loaded entry per city. Fails if no city is found or the
/// requested default city is not among them.
pub fn registry_from_dir(
    dir: &Path,
    opts: &DiskRegistryOptions,
) -> Result<CityRegistry, TenantError> {
    let mut names = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| TenantError::Io(format!("{}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| TenantError::Io(format!("{}: {e}", dir.display())))?;
        let path = entry.path();
        if path.is_dir() && path.join(CITY_DATASET_FILE).is_file() {
            let name = entry.file_name().to_string_lossy().into_owned();
            names.push(name);
        }
    }
    names.sort();
    if names.is_empty() {
        return Err(TenantError::Io(format!(
            "no cities found under {} (want <dir>/<name>/{CITY_DATASET_FILE})",
            dir.display()
        )));
    }
    let default_name = opts
        .default_city
        .clone()
        .unwrap_or_else(|| names[0].clone());
    if !names.contains(&default_name) {
        return Err(TenantError::UnknownCity(CityId::new(default_name)?));
    }
    let registry = CityRegistry::new(CityId::new(default_name)?, opts.memory_budget);
    for name in &names {
        let city = CityId::new(name.as_str())?;
        let city_dir = dir.join(name);
        let factory = snapshot_factory(
            city_dir.join(CITY_DATASET_FILE),
            city_dir.join(CITY_INDEX_DIR),
            opts.shards,
            opts.partition,
        );
        registry.add_city(city, factory)?;
    }
    Ok(registry)
}

/// Factory that reads a dataset file and builds its engine through a
/// per-city [`IndexCache`] (snapshot load when valid, build + save
/// otherwise).
pub fn snapshot_factory(
    dataset_path: PathBuf,
    index_dir: PathBuf,
    shards: usize,
    partition: Partition,
) -> EngineFactory {
    Arc::new(move || {
        let file =
            File::open(&dataset_path).map_err(|e| format!("{}: {e}", dataset_path.display()))?;
        let dataset = atsq_io::read_dataset(BufReader::new(file))
            .map_err(|e| format!("{}: {e}", dataset_path.display()))?;
        let cache = IndexCache::new(&index_dir);
        let (engine, outcome) = Engine::build_gat(&dataset, shards, partition, Some(&cache))
            .map_err(|e| e.to_string())?;
        Ok(LoadedCity {
            dataset: Arc::new(dataset),
            engine: Arc::new(engine),
            loaded_from_snapshot: outcome.as_ref().is_some_and(CacheOutcome::loaded),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TenantState;
    use atsq_datagen::CityConfig;
    use std::io::BufWriter;

    fn write_city(dir: &Path, name: &str, seed: u64) {
        let city_dir = dir.join(name);
        std::fs::create_dir_all(&city_dir).unwrap();
        let dataset = atsq_datagen::generate(&CityConfig::tiny(seed)).unwrap();
        let file = File::create(city_dir.join(CITY_DATASET_FILE)).unwrap();
        atsq_io::write_dataset(&dataset, BufWriter::new(file)).unwrap();
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("atsq-tenant-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn scans_cities_and_reloads_from_snapshot() {
        let dir = temp_dir("scan");
        write_city(&dir, "osaka", 1);
        write_city(&dir, "tokyo", 2);
        let registry = registry_from_dir(&dir, &DiskRegistryOptions::default()).unwrap();
        assert_eq!(registry.len(), 2);
        // Alphabetical default.
        assert_eq!(registry.default_city().as_str(), "osaka");
        let tokyo = CityId::new("tokyo").unwrap();
        let lease = registry.resolve(&tokyo).unwrap();
        assert!(lease.cold());
        // First load builds fresh and saves the snapshot…
        let first_from_snapshot = registry
            .cities()
            .iter()
            .find(|c| c.city == tokyo)
            .unwrap()
            .loaded_from_snapshot;
        assert!(!first_from_snapshot);
        drop(lease);
        registry.unload(&tokyo).unwrap();
        assert_eq!(registry.state(&tokyo), Some(TenantState::Evicted));
        // …so the reload after unload comes from the snapshot.
        let lease = registry.resolve(&tokyo).unwrap();
        assert!(lease.cold());
        let reloaded = registry
            .cities()
            .iter()
            .find(|c| c.city == tokyo)
            .unwrap()
            .loaded_from_snapshot;
        assert!(reloaded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_is_an_error() {
        let dir = temp_dir("empty");
        let err = registry_from_dir(&dir, &DiskRegistryOptions::default()).unwrap_err();
        assert!(matches!(err, TenantError::Io(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_default_city_is_an_error() {
        let dir = temp_dir("default");
        write_city(&dir, "only", 3);
        let opts = DiskRegistryOptions {
            default_city: Some("absent".to_owned()),
            ..DiskRegistryOptions::default()
        };
        let err = registry_from_dir(&dir, &opts).unwrap_err();
        assert!(matches!(err, TenantError::UnknownCity(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
