//! Shuttling-operation execution times (Table 1 of the paper).

use serde::{Deserialize, Serialize};

/// Execution times of the QCCD transport primitives, in microseconds
/// (Table 1, sourced from Blakestad et al. and Gutiérrez et al.):
///
/// | Operation | Time |
/// |---|---|
/// | Move (per segment) | 5 µs |
/// | Split | 80 µs |
/// | Merge | 80 µs |
/// | Cross n-path junction | 40 + 20·n µs |
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperationTimes {
    /// Linear transport time across one segment, in µs.
    pub move_us: f64,
    /// Time to split an ion off a chain edge, in µs.
    pub split_us: f64,
    /// Time to merge an ion into a chain edge, in µs.
    pub merge_us: f64,
    /// Fixed cost of steering through a junction, in µs.
    pub junction_base_us: f64,
    /// Per-path cost of steering through a junction, in µs.
    pub junction_per_path_us: f64,
    /// Time of a physical intra-trap ion reorder step (shifting a space
    /// node by one position towards a chain end), in µs. Modelled as one
    /// segment move.
    pub reorder_us: f64,
}

impl Default for OperationTimes {
    fn default() -> Self {
        OperationTimes {
            move_us: 5.0,
            split_us: 80.0,
            merge_us: 80.0,
            junction_base_us: 40.0,
            junction_per_path_us: 20.0,
            reorder_us: 5.0,
        }
    }
}

impl OperationTimes {
    /// Time to steer through a junction with `n` connected paths.
    pub fn junction_crossing_us(&self, n_paths: u32) -> f64 {
        self.junction_base_us + self.junction_per_path_us * f64::from(n_paths)
    }

    /// Total time of a shuttle: split + per-segment moves + junction
    /// crossings + merge. `segments` is the number of linear transport
    /// segments traversed and `junction_paths` yields the path count of
    /// each junction crossed, in order.
    pub fn shuttle_us(
        &self,
        segments: usize,
        junction_paths: impl IntoIterator<Item = u32>,
    ) -> f64 {
        self.split_us
            + self.move_us * segments as f64
            + junction_paths.into_iter().map(|n| self.junction_crossing_us(n)).sum::<f64>()
            + self.merge_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let t = OperationTimes::default();
        assert_eq!(t.move_us, 5.0);
        assert_eq!(t.split_us, 80.0);
        assert_eq!(t.merge_us, 80.0);
        assert_eq!(t.junction_crossing_us(1), 60.0);
        assert_eq!(t.junction_crossing_us(3), 100.0);
    }

    #[test]
    fn shuttle_time_composes_primitives() {
        let t = OperationTimes::default();
        // split + 2 moves + one 3-path junction + merge
        let expected = 80.0 + 10.0 + (40.0 + 60.0) + 80.0;
        assert_eq!(t.shuttle_us(2, [3]), expected);
        // Junction-free shuttle.
        assert_eq!(t.shuttle_us(1, []), 165.0);
    }

    #[test]
    fn more_junctions_cost_more() {
        let t = OperationTimes::default();
        assert!(t.shuttle_us(1, [2, 2]) > t.shuttle_us(1, [2]));
    }
}
