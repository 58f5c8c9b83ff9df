//! A hand-rolled, stable binary codec for the service's persistence and
//! wire layers.
//!
//! The workspace builds hermetically against vendored *stand-in* crates:
//! the `serde` on the dependency list is a marker-trait shim that performs
//! no real (de)serialization. The persistent cache tier and the
//! `ssync-serviced` IPC front-end nevertheless need real bytes, so this
//! module defines them explicitly: little-endian fixed-width integers,
//! IEEE-754 bit patterns for floats (full bit-identity round-trips, no
//! text formatting loss), one tag byte per enum variant and
//! length-prefixed sequences. Every `decode_*` function is total — corrupt
//! or truncated input yields a [`CodecError`], never a panic — because the
//! bytes may come from a shared cache directory or a remote peer.
//!
//! The encoding is versioned at the container level (cache files and wire
//! frames both start with a magic + version header, see
//! [`crate::cache`] and [`crate::wire`]); the field order here is the
//! contract and must only change together with those version numbers.

use ssync_arch::{Placement, RawPlacement, SlotId, TrapId, WeightConfig};
use ssync_baselines::CompilerKind;
use ssync_circuit::{Circuit, Gate, Qubit};
use ssync_core::{
    CompileError, CompileOutcome, CompilerConfig, InitialMapping, SchedulerStats, SwapScheduleKind,
};
use ssync_sim::{
    CompiledProgram, ExecutionReport, GateImplementation, NoiseModel, OpCounts, OperationTimes,
    ScheduledOp,
};
use std::time::Duration;

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length prefix was implausibly large for the remaining input.
    BadLength,
    /// A decoded value failed semantic validation (e.g. an inconsistent
    /// placement or an invalid gate operand).
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag}"),
            CodecError::BadLength => write!(f, "length prefix exceeds remaining input"),
            CodecError::Invalid(what) => write!(f, "decoded {what} failed validation"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends primitive values to a byte buffer in the codec's format.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends `Some(v)` as `1` + value bytes, `None` as `0`.
    pub fn put_opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_u32(v);
            }
            None => self.put_u8(0),
        }
    }
}

/// Reads primitive values back out of a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` once every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one raw byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` encoded as a little-endian `u64`.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.get_u64()?).map_err(|_| CodecError::BadLength)
    }

    /// Reads a sequence length prefix, rejecting values that could not
    /// possibly fit in the remaining input (each element needs at least
    /// `min_element_bytes`), so corrupt prefixes fail fast instead of
    /// triggering giant allocations.
    pub fn get_len(&mut self, min_element_bytes: usize) -> Result<usize, CodecError> {
        let len = self.get_usize()?;
        if len.saturating_mul(min_element_bytes.max(1)) > self.remaining() {
            return Err(CodecError::BadLength);
        }
        Ok(len)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("utf-8 string"))
    }

    /// Reads an optional `u32` written by [`ByteWriter::put_opt_u32`].
    pub fn get_opt_u32(&mut self) -> Result<Option<u32>, CodecError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u32()?)),
            tag => Err(CodecError::BadTag { what: "option", tag }),
        }
    }
}

// ---------------------------------------------------------------------------
// Enums: one stable tag byte per variant.
// ---------------------------------------------------------------------------

/// Stable wire tag of a [`CompilerKind`].
pub fn compiler_kind_tag(kind: CompilerKind) -> u8 {
    match kind {
        CompilerKind::Murali => 0,
        CompilerKind::Dai => 1,
        CompilerKind::SSync => 2,
        CompilerKind::Greedy => 3,
        CompilerKind::PermRoute => 4,
    }
}

/// Inverse of [`compiler_kind_tag`].
pub fn compiler_kind_from_tag(tag: u8) -> Result<CompilerKind, CodecError> {
    Ok(match tag {
        0 => CompilerKind::Murali,
        1 => CompilerKind::Dai,
        2 => CompilerKind::SSync,
        3 => CompilerKind::Greedy,
        4 => CompilerKind::PermRoute,
        tag => return Err(CodecError::BadTag { what: "compiler kind", tag }),
    })
}

fn initial_mapping_tag(m: InitialMapping) -> u8 {
    match m {
        InitialMapping::EvenDivided => 0,
        InitialMapping::Gathering => 1,
        InitialMapping::Sta => 2,
    }
}

fn initial_mapping_from_tag(tag: u8) -> Result<InitialMapping, CodecError> {
    Ok(match tag {
        0 => InitialMapping::EvenDivided,
        1 => InitialMapping::Gathering,
        2 => InitialMapping::Sta,
        tag => return Err(CodecError::BadTag { what: "initial mapping", tag }),
    })
}

fn gate_impl_tag(g: GateImplementation) -> u8 {
    match g {
        GateImplementation::Fm => 0,
        GateImplementation::Pm => 1,
        GateImplementation::Am1 => 2,
        GateImplementation::Am2 => 3,
    }
}

fn gate_impl_from_tag(tag: u8) -> Result<GateImplementation, CodecError> {
    Ok(match tag {
        0 => GateImplementation::Fm,
        1 => GateImplementation::Pm,
        2 => GateImplementation::Am1,
        3 => GateImplementation::Am2,
        tag => return Err(CodecError::BadTag { what: "gate implementation", tag }),
    })
}

fn perm_schedule_tag(s: SwapScheduleKind) -> u8 {
    match s {
        SwapScheduleKind::BubbleSort => 0,
        SwapScheduleKind::RecursiveSplitTwo => 1,
    }
}

fn perm_schedule_from_tag(tag: u8) -> Result<SwapScheduleKind, CodecError> {
    Ok(match tag {
        0 => SwapScheduleKind::BubbleSort,
        1 => SwapScheduleKind::RecursiveSplitTwo,
        tag => return Err(CodecError::BadTag { what: "swap schedule", tag }),
    })
}

// ---------------------------------------------------------------------------
// Circuits.
// ---------------------------------------------------------------------------

/// Encodes a circuit: register width, name, then one (tag, operands,
/// angle-bits) triple per gate — the same field walk
/// [`Circuit::content_hash`] uses, so two circuits encode identically iff
/// they hash identically (plus the name, which the hash excludes).
pub fn encode_circuit(w: &mut ByteWriter, circuit: &Circuit) {
    w.put_usize(circuit.num_qubits());
    w.put_str(circuit.name());
    w.put_usize(circuit.len());
    for gate in circuit.gates() {
        let (tag, a, b, angle): (u8, u32, u32, f64) = match *gate {
            Gate::H(q) => (0, q.0, u32::MAX, 0.0),
            Gate::X(q) => (1, q.0, u32::MAX, 0.0),
            Gate::Rx(q, t) => (2, q.0, u32::MAX, t),
            Gate::Ry(q, t) => (3, q.0, u32::MAX, t),
            Gate::Rz(q, t) => (4, q.0, u32::MAX, t),
            Gate::Cx(x, y) => (5, x.0, y.0, 0.0),
            Gate::Cz(x, y) => (6, x.0, y.0, 0.0),
            Gate::Cp(x, y, t) => (7, x.0, y.0, t),
            Gate::Ms(x, y) => (8, x.0, y.0, 0.0),
            Gate::Rzz(x, y, t) => (9, x.0, y.0, t),
            Gate::Rxx(x, y, t) => (10, x.0, y.0, t),
            Gate::Ryy(x, y, t) => (11, x.0, y.0, t),
            Gate::Swap(x, y) => (12, x.0, y.0, 0.0),
        };
        w.put_u8(tag);
        w.put_u32(a);
        w.put_u32(b);
        w.put_f64(angle);
    }
}

/// Decodes a circuit written by [`encode_circuit`], re-validating every
/// gate's operands against the register width.
pub fn decode_circuit(r: &mut ByteReader<'_>) -> Result<Circuit, CodecError> {
    let num_qubits = r.get_usize()?;
    let name = r.get_str()?;
    let len = r.get_len(17)?;
    let mut circuit = Circuit::with_name(num_qubits, name);
    for _ in 0..len {
        let tag = r.get_u8()?;
        let a = Qubit(r.get_u32()?);
        let b = Qubit(r.get_u32()?);
        let angle = r.get_f64()?;
        let gate = match tag {
            0 => Gate::H(a),
            1 => Gate::X(a),
            2 => Gate::Rx(a, angle),
            3 => Gate::Ry(a, angle),
            4 => Gate::Rz(a, angle),
            5 => Gate::Cx(a, b),
            6 => Gate::Cz(a, b),
            7 => Gate::Cp(a, b, angle),
            8 => Gate::Ms(a, b),
            9 => Gate::Rzz(a, b, angle),
            10 => Gate::Rxx(a, b, angle),
            11 => Gate::Ryy(a, b, angle),
            12 => Gate::Swap(a, b),
            tag => return Err(CodecError::BadTag { what: "gate", tag }),
        };
        circuit.try_push(gate).map_err(|_| CodecError::Invalid("gate operands"))?;
    }
    Ok(circuit)
}

// ---------------------------------------------------------------------------
// Compiler configuration.
// ---------------------------------------------------------------------------

/// Encodes every [`CompilerConfig`] leaf, in declaration order. The
/// destructuring names every field with no `..`, so a new field — in the
/// config or in the weight, timing and noise structs it nests — does not
/// compile until it is written here. [`crate::hash::config_hash`] hashes
/// exactly these bytes, so whatever crosses the wire is in the cache key.
pub fn encode_config(w: &mut ByteWriter, c: &CompilerConfig) {
    let CompilerConfig {
        weights: WeightConfig { inner_weight, shuttle_weight, threshold },
        decay_delta,
        decay_reset_interval,
        lookahead_layers,
        alpha,
        beta,
        initial_mapping,
        gate_impl,
        op_times:
            OperationTimes {
                move_us,
                split_us,
                merge_us,
                junction_base_us,
                junction_per_path_us,
                reorder_us,
            },
        noise:
            NoiseModel {
                heating_rate_gamma,
                k1_split_merge,
                k2_shuttle_segment,
                thermal_scale,
                single_qubit_fidelity,
                recooling_factor,
            },
        max_stall_iterations,
        executable_bonus,
        perm_schedule,
    } = *c;
    w.put_f64(inner_weight);
    w.put_f64(shuttle_weight);
    w.put_f64(threshold);
    w.put_f64(decay_delta);
    w.put_usize(decay_reset_interval);
    w.put_usize(lookahead_layers);
    w.put_f64(alpha);
    w.put_f64(beta);
    w.put_u8(initial_mapping_tag(initial_mapping));
    w.put_u8(gate_impl_tag(gate_impl));
    w.put_f64(move_us);
    w.put_f64(split_us);
    w.put_f64(merge_us);
    w.put_f64(junction_base_us);
    w.put_f64(junction_per_path_us);
    w.put_f64(reorder_us);
    w.put_f64(heating_rate_gamma);
    w.put_f64(k1_split_merge);
    w.put_f64(k2_shuttle_segment);
    w.put_f64(thermal_scale);
    w.put_f64(single_qubit_fidelity);
    w.put_f64(recooling_factor);
    w.put_usize(max_stall_iterations);
    w.put_f64(executable_bonus);
    w.put_u8(perm_schedule_tag(perm_schedule));
}

/// Decodes a configuration written by [`encode_config`].
pub fn decode_config(r: &mut ByteReader<'_>) -> Result<CompilerConfig, CodecError> {
    Ok(CompilerConfig {
        weights: WeightConfig {
            inner_weight: r.get_f64()?,
            shuttle_weight: r.get_f64()?,
            threshold: r.get_f64()?,
        },
        decay_delta: r.get_f64()?,
        decay_reset_interval: r.get_usize()?,
        lookahead_layers: r.get_usize()?,
        alpha: r.get_f64()?,
        beta: r.get_f64()?,
        initial_mapping: initial_mapping_from_tag(r.get_u8()?)?,
        gate_impl: gate_impl_from_tag(r.get_u8()?)?,
        op_times: OperationTimes {
            move_us: r.get_f64()?,
            split_us: r.get_f64()?,
            merge_us: r.get_f64()?,
            junction_base_us: r.get_f64()?,
            junction_per_path_us: r.get_f64()?,
            reorder_us: r.get_f64()?,
        },
        noise: NoiseModel {
            heating_rate_gamma: r.get_f64()?,
            k1_split_merge: r.get_f64()?,
            k2_shuttle_segment: r.get_f64()?,
            thermal_scale: r.get_f64()?,
            single_qubit_fidelity: r.get_f64()?,
            recooling_factor: r.get_f64()?,
        },
        max_stall_iterations: r.get_usize()?,
        executable_bonus: r.get_f64()?,
        perm_schedule: perm_schedule_from_tag(r.get_u8()?)?,
    })
}

// ---------------------------------------------------------------------------
// Compiled outcomes.
// ---------------------------------------------------------------------------

fn encode_counts(w: &mut ByteWriter, c: OpCounts) {
    w.put_usize(c.single_qubit_gates);
    w.put_usize(c.two_qubit_gates);
    w.put_usize(c.swap_gates);
    w.put_usize(c.shuttles);
    w.put_usize(c.reorders);
}

fn decode_counts(r: &mut ByteReader<'_>) -> Result<OpCounts, CodecError> {
    Ok(OpCounts {
        single_qubit_gates: r.get_usize()?,
        two_qubit_gates: r.get_usize()?,
        swap_gates: r.get_usize()?,
        shuttles: r.get_usize()?,
        reorders: r.get_usize()?,
    })
}

fn encode_op(w: &mut ByteWriter, op: &ScheduledOp) {
    match *op {
        ScheduledOp::SingleQubitGate { qubit } => {
            w.put_u8(0);
            w.put_u32(qubit.0);
        }
        ScheduledOp::TwoQubitGate { a, b, trap, chain_len, ion_distance } => {
            w.put_u8(1);
            w.put_u32(a.0);
            w.put_u32(b.0);
            w.put_u32(trap.0);
            w.put_u64(chain_len.into());
            w.put_u64(ion_distance.into());
        }
        ScheduledOp::SwapGate { a, b, trap, chain_len, ion_distance } => {
            w.put_u8(2);
            w.put_u32(a.0);
            w.put_u32(b.0);
            w.put_u32(trap.0);
            w.put_u64(chain_len.into());
            w.put_u64(ion_distance.into());
        }
        ScheduledOp::IonReorder { trap, steps } => {
            w.put_u8(3);
            w.put_u32(trap.0);
            w.put_u64(steps.into());
        }
        ScheduledOp::Shuttle {
            qubit,
            from_trap,
            to_trap,
            junctions,
            segments,
            source_chain_len,
            dest_chain_len,
        } => {
            w.put_u8(4);
            w.put_u32(qubit.0);
            w.put_u32(from_trap.0);
            w.put_u32(to_trap.0);
            w.put_u32(junctions);
            w.put_u64(segments.into());
            w.put_u64(source_chain_len.into());
            w.put_u64(dest_chain_len.into());
        }
    }
}

/// Reads an op's chain count, a `u64` on the wire and a `u16` in
/// [`ScheduledOp`]; a wider value is invalid, not truncated.
fn get_count(r: &mut ByteReader<'_>) -> Result<u16, CodecError> {
    u16::try_from(r.get_u64()?).map_err(|_| CodecError::Invalid("op count"))
}

fn decode_op(r: &mut ByteReader<'_>) -> Result<ScheduledOp, CodecError> {
    Ok(match r.get_u8()? {
        0 => ScheduledOp::SingleQubitGate { qubit: Qubit(r.get_u32()?) },
        1 => ScheduledOp::TwoQubitGate {
            a: Qubit(r.get_u32()?),
            b: Qubit(r.get_u32()?),
            trap: TrapId(r.get_u32()?),
            chain_len: get_count(r)?,
            ion_distance: get_count(r)?,
        },
        2 => ScheduledOp::SwapGate {
            a: Qubit(r.get_u32()?),
            b: Qubit(r.get_u32()?),
            trap: TrapId(r.get_u32()?),
            chain_len: get_count(r)?,
            ion_distance: get_count(r)?,
        },
        3 => ScheduledOp::IonReorder { trap: TrapId(r.get_u32()?), steps: get_count(r)? },
        4 => ScheduledOp::Shuttle {
            qubit: Qubit(r.get_u32()?),
            from_trap: TrapId(r.get_u32()?),
            to_trap: TrapId(r.get_u32()?),
            junctions: r.get_u32()?,
            segments: get_count(r)?,
            source_chain_len: get_count(r)?,
            dest_chain_len: get_count(r)?,
        },
        tag => return Err(CodecError::BadTag { what: "scheduled op", tag }),
    })
}

fn encode_placement(w: &mut ByteWriter, p: &Placement) {
    let raw = p.to_raw();
    w.put_usize(raw.slot_of.len());
    for s in &raw.slot_of {
        w.put_opt_u32(s.map(|s| s.0));
    }
    w.put_usize(raw.occupant.len());
    for q in &raw.occupant {
        w.put_opt_u32(q.map(|q| q.0));
    }
    for t in &raw.slot_trap {
        w.put_u32(t.0);
    }
    w.put_usize(raw.trap_capacity.len());
    for &c in &raw.trap_capacity {
        w.put_usize(c);
    }
    for &o in &raw.trap_occupancy {
        w.put_usize(o);
    }
}

fn decode_placement(r: &mut ByteReader<'_>) -> Result<Placement, CodecError> {
    let num_qubits = r.get_len(1)?;
    let mut slot_of = Vec::with_capacity(num_qubits);
    for _ in 0..num_qubits {
        slot_of.push(r.get_opt_u32()?.map(SlotId));
    }
    let num_slots = r.get_len(1)?;
    let mut occupant = Vec::with_capacity(num_slots);
    for _ in 0..num_slots {
        occupant.push(r.get_opt_u32()?.map(Qubit));
    }
    let mut slot_trap = Vec::with_capacity(num_slots);
    for _ in 0..num_slots {
        slot_trap.push(TrapId(r.get_u32()?));
    }
    let num_traps = r.get_len(8)?;
    let mut trap_capacity = Vec::with_capacity(num_traps);
    for _ in 0..num_traps {
        trap_capacity.push(r.get_usize()?);
    }
    let mut trap_occupancy = Vec::with_capacity(num_traps);
    for _ in 0..num_traps {
        trap_occupancy.push(r.get_usize()?);
    }
    Placement::from_raw(RawPlacement {
        slot_of,
        occupant,
        slot_trap,
        trap_capacity,
        trap_occupancy,
    })
    .ok_or(CodecError::Invalid("placement"))
}

/// Encodes a full [`CompileOutcome`]: program stream, execution report,
/// final placement, scheduler statistics and compile time. The decoded
/// value is bit-identical to the original (float fields round-trip through
/// their bit patterns).
pub fn encode_outcome(w: &mut ByteWriter, outcome: &CompileOutcome) {
    let program = outcome.program();
    w.put_usize(program.num_qubits());
    w.put_usize(program.num_traps());
    w.put_usize(program.len());
    for op in program.ops() {
        encode_op(w, op);
    }
    let report = outcome.report();
    w.put_f64(report.total_time_us);
    w.put_f64(report.success_rate);
    w.put_f64(report.gate_time_us);
    w.put_f64(report.transport_time_us);
    encode_counts(w, report.counts);
    w.put_f64(report.max_motional_quanta);
    encode_placement(w, outcome.final_placement());
    let stats = outcome.scheduler_stats();
    w.put_usize(stats.iterations);
    w.put_usize(stats.heuristic_swaps);
    w.put_usize(stats.fallback_routed_gates);
    w.put_u64(outcome.compile_time().as_nanos() as u64);
}

/// Decodes an outcome written by [`encode_outcome`].
pub fn decode_outcome(r: &mut ByteReader<'_>) -> Result<CompileOutcome, CodecError> {
    let num_qubits = r.get_usize()?;
    let num_traps = r.get_usize()?;
    let len = r.get_len(5)?;
    let mut program = CompiledProgram::with_capacity(num_qubits, num_traps, len);
    for _ in 0..len {
        program.push(decode_op(r)?);
    }
    let report = ExecutionReport {
        total_time_us: r.get_f64()?,
        success_rate: r.get_f64()?,
        gate_time_us: r.get_f64()?,
        transport_time_us: r.get_f64()?,
        counts: decode_counts(r)?,
        max_motional_quanta: r.get_f64()?,
    };
    let placement = decode_placement(r)?;
    let stats = SchedulerStats {
        iterations: r.get_usize()?,
        heuristic_swaps: r.get_usize()?,
        fallback_routed_gates: r.get_usize()?,
    };
    let compile_time = Duration::from_nanos(r.get_u64()?);
    Ok(CompileOutcome::from_saved_parts(program, report, placement, stats, compile_time))
}

/// Encodes a [`CompileError`] (tag + payload).
pub fn encode_compile_error(w: &mut ByteWriter, e: &CompileError) {
    match e {
        CompileError::DeviceTooSmall { qubits, slots } => {
            w.put_u8(0);
            w.put_usize(*qubits);
            w.put_usize(*slots);
        }
        CompileError::DisconnectedTopology => w.put_u8(1),
        CompileError::SchedulingStalled { remaining_gates } => {
            w.put_u8(2);
            w.put_usize(*remaining_gates);
        }
        CompileError::Internal { message } => {
            w.put_u8(3);
            w.put_str(message);
        }
        CompileError::DeadlineExceeded { deadline_us } => {
            w.put_u8(4);
            w.put_u64(*deadline_us);
        }
        CompileError::Overloaded { retry_after_ms } => {
            w.put_u8(5);
            w.put_u64(*retry_after_ms);
        }
    }
}

/// Decodes an error written by [`encode_compile_error`].
pub fn decode_compile_error(r: &mut ByteReader<'_>) -> Result<CompileError, CodecError> {
    Ok(match r.get_u8()? {
        0 => CompileError::DeviceTooSmall { qubits: r.get_usize()?, slots: r.get_usize()? },
        1 => CompileError::DisconnectedTopology,
        2 => CompileError::SchedulingStalled { remaining_gates: r.get_usize()? },
        3 => CompileError::Internal { message: r.get_str()? },
        4 => CompileError::DeadlineExceeded { deadline_us: r.get_u64()? },
        5 => CompileError::Overloaded { retry_after_ms: r.get_u64()? },
        tag => return Err(CodecError::BadTag { what: "compile error", tag }),
    })
}

/// A compiled outcome whose op stream is one two-qubit gate, and the
/// offset of that gate's `chain_len` in the bytes [`encode_outcome`]
/// writes for it (three `u64` headers, the tag, three `u32` operands), so
/// decoder tests can widen the count on the wire.
#[cfg(test)]
pub(crate) fn one_gate_outcome() -> (CompileOutcome, usize) {
    let compiled = ssync_core::SSyncCompiler::default()
        .compile(&ssync_circuit::generators::qft(6), &ssync_arch::QccdTopology::linear(2, 4))
        .expect("compiles");
    let mut program = CompiledProgram::new(6, 2);
    program.push(ScheduledOp::TwoQubitGate {
        a: Qubit(0),
        b: Qubit(1),
        trap: TrapId(0),
        chain_len: 4,
        ion_distance: 1,
    });
    let outcome = CompileOutcome::from_saved_parts(
        program,
        compiled.report(),
        compiled.final_placement().clone(),
        compiled.scheduler_stats(),
        compiled.compile_time(),
    );
    (outcome, 3 * 8 + 1 + 3 * 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::StableHasher;
    use ssync_arch::{Device, QccdTopology};
    use ssync_circuit::generators::{qaoa_nearest_neighbor, qft};
    use ssync_core::{CompileScratch, SSyncCompiler};

    fn assert_outcome_roundtrip(outcome: &CompileOutcome) {
        let mut w = ByteWriter::new();
        encode_outcome(&mut w, outcome);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = decode_outcome(&mut r).expect("round-trips");
        assert!(r.is_exhausted(), "no trailing bytes");
        assert_eq!(outcome.program().ops(), decoded.program().ops());
        assert_eq!(outcome.final_placement(), decoded.final_placement());
        assert_eq!(outcome.scheduler_stats(), decoded.scheduler_stats());
        assert_eq!(outcome.compile_time(), decoded.compile_time());
        assert_eq!(
            outcome.report().success_rate.to_bits(),
            decoded.report().success_rate.to_bits()
        );
        assert_eq!(
            outcome.report().total_time_us.to_bits(),
            decoded.report().total_time_us.to_bits()
        );
        assert_eq!(outcome.report().counts, decoded.report().counts);
    }

    #[test]
    fn outcome_round_trips_bit_identically() {
        let outcome = SSyncCompiler::default()
            .compile(&qft(10), &QccdTopology::grid(2, 2, 5))
            .expect("compiles");
        assert_outcome_roundtrip(&outcome);
    }

    /// The bytes of one fixed compile, pinned at wire version 8 and cache
    /// file version 1. Ops are narrower in memory than on the wire, so a
    /// layout change can move these bytes unnoticed by a round trip; if
    /// this fails, bump `WIRE_VERSION` and `PERSIST_VERSION` and re-pin.
    #[test]
    fn outcome_bytes_are_pinned() {
        let outcome = SSyncCompiler::default()
            .compile(&qft(12), &QccdTopology::grid(2, 2, 5))
            .expect("compiles");
        let mut w = ByteWriter::new();
        encode_outcome(&mut w, &outcome);
        let bytes = w.into_bytes();
        // The trailing u64 is the compile time, which differs run to run.
        let mut h = StableHasher::new();
        h.write_bytes(&bytes[..bytes.len() - 8]);
        assert_eq!((bytes.len(), h.finish()), (11_924, 0xecb0_81d3_f142_cb96));
        assert_eq!((crate::wire::WIRE_VERSION, crate::cache::PERSIST_VERSION), (8, 1));
    }

    /// An op count is a `u64` on the wire but a `u16` in memory: the
    /// widest count decodes, one more is rejected rather than truncated.
    #[test]
    fn op_counts_beyond_u16_are_invalid() {
        let (outcome, at) = one_gate_outcome();
        let mut w = ByteWriter::new();
        encode_outcome(&mut w, &outcome);
        let mut bytes = w.into_bytes();
        assert_eq!(bytes[at..at + 8], 4u64.to_le_bytes(), "the gate's chain_len");
        let widest = u64::from(u16::MAX);
        bytes[at..at + 8].copy_from_slice(&widest.to_le_bytes());
        let decoded = decode_outcome(&mut ByteReader::new(&bytes)).expect("u16::MAX fits");
        assert!(matches!(
            decoded.program().ops()[0],
            ScheduledOp::TwoQubitGate { chain_len: u16::MAX, .. }
        ));
        bytes[at..at + 8].copy_from_slice(&(widest + 1).to_le_bytes());
        assert_eq!(
            decode_outcome(&mut ByteReader::new(&bytes)).err(),
            Some(CodecError::Invalid("op count"))
        );
    }

    #[test]
    fn circuit_round_trips_and_preserves_content_hash() {
        let circuit = qaoa_nearest_neighbor(10, 2);
        let mut w = ByteWriter::new();
        encode_circuit(&mut w, &circuit);
        let bytes = w.into_bytes();
        let decoded = decode_circuit(&mut ByteReader::new(&bytes)).expect("round-trips");
        assert_eq!(circuit, decoded);
        assert_eq!(circuit.content_hash(), decoded.content_hash());
    }

    #[test]
    fn config_round_trips_every_field() {
        let config = CompilerConfig::default()
            .with_decay(0.0123)
            .with_weight_ratio(321.0)
            .with_initial_mapping(InitialMapping::Sta)
            .with_gate_impl(GateImplementation::Am2)
            .with_perm_schedule(SwapScheduleKind::BubbleSort);
        let mut w = ByteWriter::new();
        encode_config(&mut w, &config);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = decode_config(&mut r).expect("round-trips");
        assert_eq!(config, decoded);
        assert!(r.is_exhausted(), "no trailing bytes");
    }

    /// `perm_schedule` selects the SWAP stream a `PermRoute` compile
    /// emits, so a remote request carries it: every schedule round-trips
    /// under a stable tag, the config's last byte, and an unknown tag is
    /// rejected.
    #[test]
    fn perm_schedule_crosses_the_wire() {
        assert_eq!(perm_schedule_tag(SwapScheduleKind::BubbleSort), 0);
        assert_eq!(perm_schedule_tag(SwapScheduleKind::RecursiveSplitTwo), 1);
        for schedule in SwapScheduleKind::ALL {
            let mut w = ByteWriter::new();
            encode_config(&mut w, &CompilerConfig::default().with_perm_schedule(schedule));
            let mut bytes = w.into_bytes();
            assert_eq!(bytes.last(), Some(&perm_schedule_tag(schedule)));
            let decoded = decode_config(&mut ByteReader::new(&bytes)).expect("round-trips");
            assert_eq!(decoded.perm_schedule, schedule);
            *bytes.last_mut().expect("non-empty") = SwapScheduleKind::ALL.len() as u8;
            assert!(matches!(
                decode_config(&mut ByteReader::new(&bytes)),
                Err(CodecError::BadTag { what: "swap schedule", .. })
            ));
        }
    }

    /// The recorder is a per-worker switch on [`CompileScratch`], and a
    /// recording describes one scheduling run, served by trace id: it
    /// never rides in an encoded outcome, so a recorder-on compile encodes
    /// to the same bytes as a recorder-off one, compile time aside.
    #[test]
    fn flight_recorder_stays_off_the_wire() {
        let compiler = SSyncCompiler::default();
        let device = Device::build(QccdTopology::grid(2, 2, 5), compiler.config().weights);
        let encode = |recorder: bool| {
            let mut scratch = CompileScratch::new(recorder);
            let outcome = compiler
                .compile_on_with_scratch(&device, &qft(10), &mut scratch)
                .expect("compiles");
            assert_eq!(outcome.flight_recording().is_some(), recorder);
            let mut w = ByteWriter::new();
            encode_outcome(&mut w, &outcome);
            w.into_bytes()
        };
        let (on, off) = (encode(true), encode(false));
        // The trailing u64 is the compile time, which differs run to run.
        assert_eq!(on[..on.len() - 8], off[..off.len() - 8]);
        let decoded = decode_outcome(&mut ByteReader::new(&on)).expect("decodes");
        assert!(decoded.flight_recording().is_none());
    }

    #[test]
    fn compile_errors_round_trip() {
        for err in [
            CompileError::DeviceTooSmall { qubits: 12, slots: 8 },
            CompileError::DisconnectedTopology,
            CompileError::SchedulingStalled { remaining_gates: 3 },
            CompileError::Internal { message: "worker panicked".into() },
            CompileError::DeadlineExceeded { deadline_us: 1500 },
            CompileError::Overloaded { retry_after_ms: 25 },
        ] {
            let mut w = ByteWriter::new();
            encode_compile_error(&mut w, &err);
            let bytes = w.into_bytes();
            let decoded = decode_compile_error(&mut ByteReader::new(&bytes)).expect("round-trips");
            assert_eq!(format!("{err}"), format!("{decoded}"));
        }
    }

    #[test]
    fn compiler_kind_tags_are_stable_and_round_trip() {
        use ssync_baselines::CompilerKind;
        // Wire tags are append-only: existing values may never change.
        assert_eq!(compiler_kind_tag(CompilerKind::Murali), 0);
        assert_eq!(compiler_kind_tag(CompilerKind::Dai), 1);
        assert_eq!(compiler_kind_tag(CompilerKind::SSync), 2);
        assert_eq!(compiler_kind_tag(CompilerKind::Greedy), 3);
        assert_eq!(compiler_kind_tag(CompilerKind::PermRoute), 4);
        for kind in CompilerKind::ALL {
            assert_eq!(compiler_kind_from_tag(compiler_kind_tag(kind)).unwrap(), kind);
        }
        assert!(matches!(
            compiler_kind_from_tag(CompilerKind::ALL.len() as u8),
            Err(CodecError::BadTag { what: "compiler kind", .. })
        ));
    }

    #[test]
    fn truncated_and_corrupt_input_fail_cleanly() {
        let outcome = SSyncCompiler::default()
            .compile(&qft(8), &QccdTopology::linear(2, 5))
            .expect("compiles");
        let mut w = ByteWriter::new();
        encode_outcome(&mut w, &outcome);
        let bytes = w.into_bytes();
        // Every truncation point must error, never panic.
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_outcome(&mut ByteReader::new(&bytes[..cut])).is_err(), "cut {cut}");
        }
        // A corrupted op tag errors.
        let mut corrupt = bytes.clone();
        corrupt[24] = 0xEE; // first op's tag byte (after 3 u64 headers)
        assert!(decode_outcome(&mut ByteReader::new(&corrupt)).is_err());
        // A giant length prefix is rejected without allocating.
        let mut huge = ByteWriter::new();
        huge.put_u64(u64::MAX);
        let huge = huge.into_bytes();
        assert!(matches!(ByteReader::new(&huge).get_len(1), Err(CodecError::BadLength)));
    }
}
