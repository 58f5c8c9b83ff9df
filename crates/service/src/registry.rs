//! The device registry: named, build-once, shared [`Device`] artifacts.
//!
//! A long-lived service compiles millions of circuits against a handful of
//! machines. The registry gives each machine a durable identity: the first
//! request for a `(name, weights)` pair builds the full [`Device`]
//! artifact (slot graph, trap router, candidate index — the all-pairs
//! distance matrix stays lazy, as in `Device` itself) exactly once, every
//! later request shares the same `Arc`, and each entry carries a stable
//! content [fingerprint](crate::hash::device_fingerprint) that keys the
//! result cache.
//!
//! ```
//! use ssync_arch::WeightConfig;
//! use ssync_service::DeviceRegistry;
//! use std::sync::Arc;
//!
//! let registry = DeviceRegistry::new();
//! let weights = WeightConfig::default();
//! // First request builds the paper's G-2x3 device ...
//! let first = registry.get_or_build_named("G-2x3", weights).unwrap();
//! // ... every later request shares the same artifact.
//! let second = registry.get_or_build_named("G-2x3", weights).unwrap();
//! assert!(Arc::ptr_eq(&first, &second));
//! // Fingerprints depend on content only, so a rebuilt registry (or
//! // another process) reproduces them exactly.
//! assert_eq!(
//!     first.fingerprint(),
//!     DeviceRegistry::new().get_or_build_named("G-2x3", weights).unwrap().fingerprint(),
//! );
//! ```

use crate::hash::device_fingerprint;
use ssync_arch::{Device, QccdTopology, WeightConfig};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A registry entry: one named, immutable device plus its fingerprint.
#[derive(Debug)]
pub struct RegisteredDevice {
    name: String,
    fingerprint: u64,
    device: Arc<Device>,
}

impl RegisteredDevice {
    /// The name the device was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stable content fingerprint (topology structure + edge weights)
    /// used as the device component of cache keys.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The shared device artifact.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

/// Keys are the registered name plus the exact weight bits: the same
/// machine under different edge weights is a different compile target
/// (the Fig. 14 ratio sweep relies on this).
type RegistryKey = (String, [u64; 3]);

fn weight_bits(w: WeightConfig) -> [u64; 3] {
    [w.inner_weight.to_bits(), w.shuttle_weight.to_bits(), w.threshold.to_bits()]
}

/// A concurrent map of named devices with build-once semantics: when many
/// threads request the same key simultaneously, exactly one builds the
/// artifact (outside the map lock) and everyone shares the result.
#[derive(Debug, Default)]
pub struct DeviceRegistry {
    entries: Mutex<HashMap<RegistryKey, Arc<OnceLock<Arc<RegisteredDevice>>>>>,
}

impl DeviceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the device registered under `(name, weights)`, building it
    /// from `topology()` first if this is the first request. The builder
    /// closure runs at most once per key, without holding the registry
    /// lock, so a slow build never blocks lookups of other devices.
    pub fn get_or_build(
        &self,
        name: &str,
        weights: WeightConfig,
        topology: impl FnOnce() -> QccdTopology,
    ) -> Arc<RegisteredDevice> {
        let cell = {
            let mut entries = self.entries.lock().expect("registry lock poisoned");
            Arc::clone(
                entries
                    .entry((name.to_string(), weight_bits(weights)))
                    .or_insert_with(|| Arc::new(OnceLock::new())),
            )
        };
        Arc::clone(cell.get_or_init(|| {
            let device = Arc::new(Device::build(topology(), weights));
            let fingerprint = device_fingerprint(&device);
            Arc::new(RegisteredDevice { name: name.to_string(), fingerprint, device })
        }))
    }

    /// [`DeviceRegistry::get_or_build`] for one of the paper's named
    /// topologies (`"L-6"`, `"G-2x3"`, `"S-4"`, …); `None` for an unknown
    /// name.
    pub fn get_or_build_named(
        &self,
        name: &str,
        weights: WeightConfig,
    ) -> Option<Arc<RegisteredDevice>> {
        let topology = QccdTopology::named(name)?;
        Some(self.get_or_build(name, weights, move || topology))
    }

    /// The already-registered device under `(name, weights)`, if any.
    pub fn get(&self, name: &str, weights: WeightConfig) -> Option<Arc<RegisteredDevice>> {
        let entries = self.entries.lock().expect("registry lock poisoned");
        entries.get(&(name.to_string(), weight_bits(weights)))?.get().cloned()
    }

    /// Number of registered (built or in-flight) devices.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("registry lock poisoned").len()
    }

    /// `true` when nothing has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The registered names, sorted (one entry per `(name, weights)` key).
    pub fn names(&self) -> Vec<String> {
        let entries = self.entries.lock().expect("registry lock poisoned");
        let mut names: Vec<String> = entries.keys().map(|(n, _)| n.clone()).collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_core::CompilerConfig;

    #[test]
    fn same_key_shares_one_built_device() {
        let registry = DeviceRegistry::new();
        let weights = CompilerConfig::default().weights;
        let a = registry.get_or_build_named("G-2x3", weights).unwrap();
        let b = registry.get_or_build_named("G-2x3", weights).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must not rebuild");
        assert_eq!(registry.len(), 1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.name(), "G-2x3");
    }

    #[test]
    fn different_weights_register_different_devices() {
        let registry = DeviceRegistry::new();
        let base = CompilerConfig::default().weights;
        let a = registry.get_or_build_named("G-2x2", base).unwrap();
        let b = registry.get_or_build_named("G-2x2", WeightConfig::with_ratio(100.0)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.names(), vec!["G-2x2".to_string(), "G-2x2".to_string()]);
    }

    #[test]
    fn fingerprints_are_stable_across_registries() {
        let weights = CompilerConfig::default().weights;
        let first = DeviceRegistry::new().get_or_build_named("S-4", weights).unwrap();
        let second = DeviceRegistry::new().get_or_build_named("S-4", weights).unwrap();
        assert_eq!(first.fingerprint(), second.fingerprint());
    }

    #[test]
    fn unknown_names_are_rejected_and_get_reads_do_not_build() {
        let registry = DeviceRegistry::new();
        let weights = CompilerConfig::default().weights;
        assert!(registry.get_or_build_named("nope", weights).is_none());
        assert!(registry.get("L-6", weights).is_none());
        assert!(registry.is_empty());
        registry.get_or_build("custom", weights, || QccdTopology::linear(3, 6));
        assert!(registry.get("custom", weights).is_some());
    }

    #[test]
    fn concurrent_lookups_build_exactly_once() {
        let registry = Arc::new(DeviceRegistry::new());
        let weights = CompilerConfig::default().weights;
        let built = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let registry = Arc::clone(&registry);
                let built = Arc::clone(&built);
                scope.spawn(move || {
                    registry.get_or_build("G-3x3", weights, || {
                        built.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        QccdTopology::grid(3, 3, 10)
                    });
                });
            }
        });
        assert_eq!(built.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(registry.len(), 1);
    }
}
