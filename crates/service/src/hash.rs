//! Stable, process-independent fingerprints for cache keys.
//!
//! Everything here folds through [`StableHasher`] — the workspace's single
//! FNV-1a implementation, re-exported from `ssync-circuit` so circuit
//! content hashes and device/config fingerprints can never drift apart —
//! over an explicit, documented field walk: floats contribute their exact
//! bit patterns, enum variants contribute their stable labels.

use ssync_arch::{Device, WeightConfig};
use ssync_core::CompilerConfig;

pub use ssync_circuit::StableHasher;

fn write_weights(h: &mut StableHasher, w: WeightConfig) {
    h.write_f64(w.inner_weight);
    h.write_f64(w.shuttle_weight);
    h.write_f64(w.threshold);
}

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
    write_weights(&mut h, device.weights());
    h.finish()
}

/// A stable hash over every [`CompilerConfig`] field that can influence
/// compiled output: heuristic hyper-parameters, mapping choice, gate
/// implementation, operation times and the full noise model.
/// `batch_workers` is deliberately excluded: the batch worker count never
/// changes results (the batch golden tests enforce that), so two configs
/// differing only in fan-out share cache entries. `flight_recorder` is
/// excluded because the recorder observes without steering (compiled
/// output is bit-identical on or off), so enabling it must not cold the
/// cache — which is also what lets the service pool pin the flag into a
/// job's config *after* the cache key was computed.
pub fn config_hash(config: &CompilerConfig) -> u64 {
    let mut h = StableHasher::new();
    write_weights(&mut h, config.weights);
    h.write_f64(config.decay_delta);
    h.write_usize(config.decay_reset_interval);
    h.write_usize(config.lookahead_layers);
    h.write_usize(config.path_truncation);
    h.write_f64(config.alpha);
    h.write_f64(config.beta);
    h.write_str(config.initial_mapping.label());
    h.write_str(config.gate_impl.label());
    h.write_f64(config.op_times.move_us);
    h.write_f64(config.op_times.split_us);
    h.write_f64(config.op_times.merge_us);
    h.write_f64(config.op_times.junction_base_us);
    h.write_f64(config.op_times.junction_per_path_us);
    h.write_f64(config.op_times.reorder_us);
    h.write_f64(config.noise.heating_rate_gamma);
    h.write_f64(config.noise.k1_split_merge);
    h.write_f64(config.noise.k2_shuttle_segment);
    h.write_f64(config.noise.thermal_scale);
    h.write_f64(config.noise.single_qubit_fidelity);
    h.write_f64(config.noise.recooling_factor);
    h.write_usize(config.max_stall_iterations);
    h.write_f64(config.executable_bonus);
    // Output-affecting for CompilerKind::PermRoute (it selects the SWAP
    // schedule realising each blocked layer), so it must split the cache
    // even though the wire codec never transports it.
    h.write_str(config.perm_schedule.label());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_arch::QccdTopology;
    use ssync_core::InitialMapping;

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

    #[test]
    fn config_hash_tracks_output_affecting_fields_only() {
        let base = CompilerConfig::default();
        assert_eq!(config_hash(&base), config_hash(&CompilerConfig::default()));
        assert_ne!(config_hash(&base), config_hash(&base.with_decay(0.01)));
        assert_ne!(
            config_hash(&base),
            config_hash(&base.with_initial_mapping(InitialMapping::Sta))
        );
        assert_ne!(config_hash(&base), config_hash(&base.with_weight_ratio(100.0)));
        // The perm-route schedule changes the emitted SWAP stream, so it
        // must split the cache.
        assert_ne!(
            config_hash(&base),
            config_hash(&base.with_perm_schedule(ssync_core::SwapScheduleKind::BubbleSort))
        );
        // The batch fan-out cannot change compiled output, so it must not
        // split the cache.
        assert_eq!(config_hash(&base), config_hash(&base.with_batch_workers(7)));
        // The flight recorder observes without steering (compiled output is
        // bit-identical on or off), so it must not split the cache either.
        assert_eq!(config_hash(&base), config_hash(&base.with_flight_recorder(true)));
    }

    #[test]
    fn every_noise_field_splits_the_cache_key() {
        // The evaluation report is part of the cached outcome, so every
        // noise parameter must contribute to the hash.
        let base = CompilerConfig::default();
        let mutations: [fn(&mut CompilerConfig); 6] = [
            |c| c.noise.heating_rate_gamma += 0.5,
            |c| c.noise.k1_split_merge += 0.05,
            |c| c.noise.k2_shuttle_segment += 0.005,
            |c| c.noise.thermal_scale *= 2.0,
            |c| c.noise.single_qubit_fidelity -= 1e-4,
            |c| c.noise.recooling_factor += 0.25,
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            let mut changed = base;
            mutate(&mut changed);
            assert_ne!(config_hash(&base), config_hash(&changed), "noise field {i}");
        }
    }
}
