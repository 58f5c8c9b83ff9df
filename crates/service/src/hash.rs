//! Stable, process-independent fingerprints for cache keys.
//!
//! Everything here folds through [`StableHasher`] — the workspace's
//! FNV-1a implementation, re-exported from `ssync-circuit`. The third key
//! component, [`Circuit::content_hash`](ssync_circuit::Circuit::content_hash),
//! is a word-wise fold of its own. Floats contribute their exact bit
//! patterns.

use crate::codec::{self, ByteWriter};
use ssync_arch::Device;
use ssync_core::CompilerConfig;

pub use ssync_circuit::StableHasher;

/// A stable fingerprint of a device's *content*: trap count, per-trap
/// capacities, the inter-trap link list (endpoints + junction counts) and
/// the edge weights everything was derived under. The topology's display
/// name is deliberately excluded — two differently-named but structurally
/// identical devices fingerprint identically, and rebuilding the same
/// machine in another process reproduces the value exactly.
pub fn device_fingerprint(device: &Device) -> u64 {
    let topology = device.topology();
    let mut h = StableHasher::new();
    h.write_usize(topology.num_traps());
    for trap in topology.traps() {
        h.write_usize(trap.capacity());
    }
    let links = topology.links();
    h.write_usize(links.len());
    for (a, b, junctions) in links {
        h.write_u64(u64::from(a.0) | (u64::from(b.0) << 32));
        h.write_u64(u64::from(junctions));
    }
    let weights = device.weights();
    h.write_f64(weights.inner_weight);
    h.write_f64(weights.shuttle_weight);
    h.write_f64(weights.threshold);
    h.finish()
}

/// A stable hash of a [`CompilerConfig`]: the digest of its wire encoding
/// ([`codec::encode_config`]). Every config field affects output and the
/// encoding writes every field, so the key covers exactly the config's
/// contribution to a compile — there is no field list to keep in sync.
pub fn config_hash(config: &CompilerConfig) -> u64 {
    let mut w = ByteWriter::new();
    codec::encode_config(&mut w, config);
    let mut h = StableHasher::new();
    h.write_bytes(&w.into_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ByteReader;
    use ssync_arch::{QccdTopology, WeightConfig};
    use ssync_core::{InitialMapping, SwapScheduleKind};
    use ssync_sim::GateImplementation;
    use std::collections::HashSet;

    #[test]
    fn device_fingerprint_is_content_derived_and_stable() {
        let weights = CompilerConfig::default().weights;
        let a = Device::build(QccdTopology::grid(2, 3, 17), weights);
        let b = Device::build(QccdTopology::grid(2, 3, 17), weights);
        assert_eq!(device_fingerprint(&a), device_fingerprint(&b));

        let capacity = Device::build(QccdTopology::grid(2, 3, 18), weights);
        assert_ne!(device_fingerprint(&a), device_fingerprint(&capacity));
        let shape = Device::build(QccdTopology::grid(3, 2, 17), weights);
        assert_ne!(device_fingerprint(&a), device_fingerprint(&shape));
        let reweighted =
            Device::build(QccdTopology::grid(2, 3, 17), WeightConfig::with_ratio(100.0));
        assert_ne!(device_fingerprint(&a), device_fingerprint(&reweighted));
    }

    /// The config holds only output-affecting fields, and the key is a
    /// function of their values alone: equal configs share it however
    /// they were built, and changing an output-affecting field splits it.
    #[test]
    fn config_hash_tracks_output_affecting_fields_only() {
        let base = CompilerConfig::default();
        assert_eq!(config_hash(&base), config_hash(&CompilerConfig::default()));
        let rebuilt = base.with_decay(0.01).with_decay(base.decay_delta);
        assert_eq!(config_hash(&base), config_hash(&rebuilt));
        for changed in [
            base.with_decay(0.01),
            base.with_initial_mapping(InitialMapping::Sta),
            base.with_weight_ratio(100.0),
            // The perm-route schedule changes the emitted SWAP stream.
            base.with_perm_schedule(SwapScheduleKind::BubbleSort),
        ] {
            assert_ne!(config_hash(&base), config_hash(&changed), "{changed:?}");
        }
    }

    /// Every config leaf, the noise model's included, changes output or
    /// its evaluation (the report is cached too), so each must split the
    /// cache key and survive the wire round trip.
    #[test]
    fn every_noise_field_splits_the_cache_key() {
        let base = CompilerConfig::default();
        let mutations: [fn(&mut CompilerConfig); 25] = [
            |c| c.weights.inner_weight *= 2.0,
            |c| c.weights.shuttle_weight *= 2.0,
            |c| c.weights.threshold *= 2.0,
            |c| c.decay_delta *= 2.0,
            |c| c.decay_reset_interval += 1,
            |c| c.lookahead_layers += 1,
            |c| c.alpha *= 2.0,
            |c| c.beta *= 2.0,
            |c| c.initial_mapping = InitialMapping::Sta,
            |c| c.gate_impl = GateImplementation::Am2,
            |c| c.op_times.move_us *= 2.0,
            |c| c.op_times.split_us *= 2.0,
            |c| c.op_times.merge_us *= 2.0,
            |c| c.op_times.junction_base_us *= 2.0,
            |c| c.op_times.junction_per_path_us *= 2.0,
            |c| c.op_times.reorder_us *= 2.0,
            |c| c.noise.heating_rate_gamma += 0.5,
            |c| c.noise.k1_split_merge += 0.05,
            |c| c.noise.k2_shuttle_segment += 0.005,
            |c| c.noise.thermal_scale *= 2.0,
            |c| c.noise.single_qubit_fidelity -= 1e-4,
            |c| c.noise.recooling_factor += 0.25,
            |c| c.max_stall_iterations += 1,
            |c| c.executable_bonus *= 2.0,
            |c| c.perm_schedule = SwapScheduleKind::BubbleSort,
        ];
        let mut keys = HashSet::from([config_hash(&base)]);
        for (i, mutate) in mutations.iter().enumerate() {
            let mut changed = base;
            mutate(&mut changed);
            assert!(keys.insert(config_hash(&changed)), "leaf {i} must split the cache key");
            let mut w = ByteWriter::new();
            codec::encode_config(&mut w, &changed);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(codec::decode_config(&mut r).expect("decodes"), changed, "leaf {i}");
            assert!(r.is_exhausted(), "leaf {i}: no trailing bytes");
        }
    }
}
