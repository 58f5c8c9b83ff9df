//! A hand-rolled, stable binary codec for the service's persistence and
//! wire layers.
//!
//! The workspace builds hermetically against vendored *stand-in* crates:
//! the `serde` on the dependency list is a marker-trait shim that performs
//! no real (de)serialization. The persistent cache tier and the
//! `ssync-serviced` IPC front-end nevertheless need real bytes, so this
//! module defines them explicitly: IEEE-754 bit patterns for floats (full
//! bit-identity round-trips, no text formatting loss), one tag byte per
//! enum variant and length-prefixed sequences. Circuits, configs and the
//! service's other messages write integers little-endian at fixed width.
//! A compiled outcome writes every integer as an LEB128 varint
//! ([`ByteWriter::put_var`]): seven value bits per byte, so the small ids
//! and chain counts that make up an op stream take one byte each, about
//! 3.6 bytes per op where fixed-width fields took 15. Every `decode_*`
//! function is total — corrupt or truncated input yields a
//! [`CodecError`], never a panic — because the bytes may come from a
//! shared cache directory or a remote peer.
//!
//! [`EncodedOutcome`] is the stored form of a finished compile: the result
//! cache keeps those bytes, the daemon writes them as an `Outcome` payload
//! as they are, and a cache file is a header plus the same bytes.
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
use std::sync::Arc;
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

    /// Appends `v` as an LEB128 varint: seven value bits per byte, low
    /// bits first, the top bit set on every byte but the last. A value
    /// below 128 takes one byte, a `u32` at most five and a `u64` ten.
    pub fn put_var(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends raw bytes as they are.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
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

    /// Appends `Some(v)` as `1` + the value's varint, `None` as `0`.
    pub fn put_opt_var(&mut self, v: Option<u32>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_var(v.into());
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
        let byte = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(byte)
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

    /// Reads a varint written by [`ByteWriter::put_var`]. Only the
    /// shortest form decodes: a zero last byte after the first, or a bit
    /// past the 64th, is [`CodecError::Invalid`], so every value has
    /// exactly one encoding.
    #[inline]
    pub fn get_var(&mut self) -> Result<u64, CodecError> {
        // Most op fields are below 128: one byte, one branch.
        match self.buf.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(byte.into())
            }
            _ => self.get_long_var(),
        }
    }

    fn get_long_var(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        let mut shift = 0;
        while shift < 64 {
            let byte = self.get_u8()?;
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                if (byte == 0 && shift > 0) || (shift == 63 && byte > 1) {
                    break;
                }
                return Ok(value);
            }
            shift += 7;
        }
        Err(CodecError::Invalid("overlong varint"))
    }

    /// Reads a varint into a narrower field: a value the field cannot
    /// hold is [`CodecError::Invalid`] naming `what`, never truncated.
    pub fn get_var_as<T: TryFrom<u64>>(&mut self, what: &'static str) -> Result<T, CodecError> {
        T::try_from(self.get_var()?).map_err(|_| CodecError::Invalid(what))
    }

    /// Reads a sequence length prefix, rejecting values that could not
    /// possibly fit in the remaining input (each element needs at least
    /// `min_element_bytes`), so corrupt prefixes fail fast instead of
    /// triggering giant allocations.
    pub fn get_len(&mut self, min_element_bytes: usize) -> Result<usize, CodecError> {
        let len = self.get_usize()?;
        self.check_len(len, min_element_bytes)
    }

    /// [`ByteReader::get_len`] for a length written as a varint.
    pub fn get_var_len(&mut self, min_element_bytes: usize) -> Result<usize, CodecError> {
        let len = usize::try_from(self.get_var()?).map_err(|_| CodecError::BadLength)?;
        self.check_len(len, min_element_bytes)
    }

    fn check_len(&self, len: usize, min_element_bytes: usize) -> Result<usize, CodecError> {
        if len.saturating_mul(min_element_bytes.max(1)) > self.remaining() {
            return Err(CodecError::BadLength);
        }
        Ok(len)
    }

    /// Consumes and returns every byte not yet read.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.pos..];
        self.pos = self.buf.len();
        rest
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

    /// Reads an optional `u32` written by [`ByteWriter::put_opt_var`];
    /// `what` names the field for a value past `u32`.
    pub fn get_opt_var(&mut self, what: &'static str) -> Result<Option<u32>, CodecError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_var_as(what)?)),
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

/// The bytes [`encode_circuit`] writes per gate: a tag, two `u32`
/// operands and the angle's bits.
const GATE_RECORD_BYTES: usize = 17;

/// Encodes a circuit: register width, name, gate count, then one 17-byte
/// record (tag, operands, angle bits) per gate, in the field order
/// [`Circuit::content_hash`] walks.
pub fn encode_circuit(w: &mut ByteWriter, circuit: &Circuit) {
    w.put_usize(circuit.num_qubits());
    w.put_str(circuit.name());
    w.put_usize(circuit.len());
    for gate in circuit.gates() {
        let (tag, a, b, angle) = gate.fields();
        w.put_u8(tag);
        w.put_u32(a);
        w.put_u32(b);
        w.put_f64(angle);
    }
}

/// Decodes a circuit written by [`encode_circuit`], re-validating every
/// gate's operands against the register width. The gate count is checked
/// against the remaining input before the gate list is reserved, and the
/// reservation is exact.
pub fn decode_circuit(r: &mut ByteReader<'_>) -> Result<Circuit, CodecError> {
    let num_qubits = r.get_usize()?;
    let name = r.get_str()?;
    let len = r.get_len(GATE_RECORD_BYTES)?;
    let mut circuit = Circuit::with_name(num_qubits, name);
    circuit.reserve_exact(len);
    for _ in 0..len {
        let record: &[u8; GATE_RECORD_BYTES] =
            r.take(GATE_RECORD_BYTES)?.try_into().expect("a whole gate record");
        let operand =
            |at: usize| u32::from_le_bytes(record[at..at + 4].try_into().expect("4 bytes"));
        let angle = f64::from_bits(u64::from_le_bytes(record[9..].try_into().expect("8 bytes")));
        let tag = record[0];
        let gate = Gate::from_fields(tag, operand(1), operand(5), angle)
            .ok_or(CodecError::BadTag { what: "gate", tag })?;
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
    for count in [c.single_qubit_gates, c.two_qubit_gates, c.swap_gates, c.shuttles, c.reorders] {
        w.put_var(count as u64);
    }
}

fn decode_counts(r: &mut ByteReader<'_>) -> Result<OpCounts, CodecError> {
    let mut count = || r.get_var_as("report count");
    Ok(OpCounts {
        single_qubit_gates: count()?,
        two_qubit_gates: count()?,
        swap_gates: count()?,
        shuttles: count()?,
        reorders: count()?,
    })
}

fn encode_op(w: &mut ByteWriter, op: &ScheduledOp) {
    match *op {
        ScheduledOp::SingleQubitGate { qubit } => {
            w.put_u8(0);
            w.put_var(qubit.0.into());
        }
        ScheduledOp::TwoQubitGate { a, b, trap, chain_len, ion_distance } => {
            w.put_u8(1);
            for v in [a.0, b.0, trap.0, chain_len.into(), ion_distance.into()] {
                w.put_var(v.into());
            }
        }
        ScheduledOp::SwapGate { a, b, trap, chain_len, ion_distance } => {
            w.put_u8(2);
            for v in [a.0, b.0, trap.0, chain_len.into(), ion_distance.into()] {
                w.put_var(v.into());
            }
        }
        ScheduledOp::IonReorder { trap, steps } => {
            w.put_u8(3);
            w.put_var(trap.0.into());
            w.put_var(steps.into());
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
            for v in [
                qubit.0,
                from_trap.0,
                to_trap.0,
                junctions,
                segments.into(),
                source_chain_len.into(),
                dest_chain_len.into(),
            ] {
                w.put_var(v.into());
            }
        }
    }
}

/// Reads an op's qubit or trap id, a `u32`; a wider value is invalid,
/// not truncated.
fn get_id(r: &mut ByteReader<'_>) -> Result<u32, CodecError> {
    r.get_var_as("op id")
}

/// Reads an op's chain count, a `u16` in [`ScheduledOp`]; a wider value
/// is invalid, not truncated.
fn get_count(r: &mut ByteReader<'_>) -> Result<u16, CodecError> {
    r.get_var_as("op count")
}

fn decode_op(r: &mut ByteReader<'_>) -> Result<ScheduledOp, CodecError> {
    Ok(match r.get_u8()? {
        0 => ScheduledOp::SingleQubitGate { qubit: Qubit(get_id(r)?) },
        1 => ScheduledOp::TwoQubitGate {
            a: Qubit(get_id(r)?),
            b: Qubit(get_id(r)?),
            trap: TrapId(get_id(r)?),
            chain_len: get_count(r)?,
            ion_distance: get_count(r)?,
        },
        2 => ScheduledOp::SwapGate {
            a: Qubit(get_id(r)?),
            b: Qubit(get_id(r)?),
            trap: TrapId(get_id(r)?),
            chain_len: get_count(r)?,
            ion_distance: get_count(r)?,
        },
        3 => ScheduledOp::IonReorder { trap: TrapId(get_id(r)?), steps: get_count(r)? },
        4 => ScheduledOp::Shuttle {
            qubit: Qubit(get_id(r)?),
            from_trap: TrapId(get_id(r)?),
            to_trap: TrapId(get_id(r)?),
            junctions: r.get_var_as("op count")?,
            segments: get_count(r)?,
            source_chain_len: get_count(r)?,
            dest_chain_len: get_count(r)?,
        },
        tag => return Err(CodecError::BadTag { what: "scheduled op", tag }),
    })
}

fn encode_placement(w: &mut ByteWriter, p: &Placement) {
    let raw = p.to_raw();
    w.put_var(raw.slot_of.len() as u64);
    for s in &raw.slot_of {
        w.put_opt_var(s.map(|s| s.0));
    }
    w.put_var(raw.occupant.len() as u64);
    for q in &raw.occupant {
        w.put_opt_var(q.map(|q| q.0));
    }
    for t in &raw.slot_trap {
        w.put_var(t.0.into());
    }
    w.put_var(raw.trap_capacity.len() as u64);
    for &n in raw.trap_capacity.iter().chain(&raw.trap_occupancy) {
        w.put_var(n as u64);
    }
}

fn decode_placement(r: &mut ByteReader<'_>) -> Result<Placement, CodecError> {
    // A `None` slot is one byte; a slot also has a trap id, and a trap a
    // capacity and an occupancy.
    let num_qubits = r.get_var_len(1)?;
    let mut slot_of = Vec::with_capacity(num_qubits);
    for _ in 0..num_qubits {
        slot_of.push(r.get_opt_var("placement slot")?.map(SlotId));
    }
    let num_slots = r.get_var_len(2)?;
    let mut occupant = Vec::with_capacity(num_slots);
    for _ in 0..num_slots {
        occupant.push(r.get_opt_var("placement qubit")?.map(Qubit));
    }
    let mut slot_trap = Vec::with_capacity(num_slots);
    for _ in 0..num_slots {
        slot_trap.push(TrapId(r.get_var_as("placement trap")?));
    }
    let num_traps = r.get_var_len(2)?;
    let mut trap_capacity = Vec::with_capacity(num_traps);
    for _ in 0..num_traps {
        trap_capacity.push(r.get_var_as("placement count")?);
    }
    let mut trap_occupancy = Vec::with_capacity(num_traps);
    for _ in 0..num_traps {
        trap_occupancy.push(r.get_var_as("placement count")?);
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
/// final placement, scheduler statistics and compile time. Every integer
/// is a varint except the compile time, a fixed eight-byte nanosecond
/// count at the very end: it differs from run to run, and a fixed width
/// lets a digest of the bytes leave it out. The decoded value is
/// bit-identical to the original (float fields round-trip through their
/// bit patterns).
pub fn encode_outcome(w: &mut ByteWriter, outcome: &CompileOutcome) {
    let program = outcome.program();
    w.put_var(program.num_qubits() as u64);
    w.put_var(program.num_traps() as u64);
    w.put_var(program.len() as u64);
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
    w.put_var(stats.iterations as u64);
    w.put_var(stats.heuristic_swaps as u64);
    w.put_var(stats.fallback_routed_gates as u64);
    w.put_u64(outcome.compile_time().as_nanos() as u64);
}

/// Decodes an outcome written by [`encode_outcome`].
pub fn decode_outcome(r: &mut ByteReader<'_>) -> Result<CompileOutcome, CodecError> {
    let num_qubits = r.get_var_as("program width")?;
    let num_traps = r.get_var_as("program traps")?;
    // The shortest op is a tag and a one-byte qubit id.
    let len = r.get_var_len(2)?;
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
        iterations: r.get_var_as("scheduler stat")?,
        heuristic_swaps: r.get_var_as("scheduler stat")?,
        fallback_routed_gates: r.get_var_as("scheduler stat")?,
    };
    let compile_time = Duration::from_nanos(r.get_u64()?);
    Ok(CompileOutcome::from_saved_parts(program, report, placement, stats, compile_time))
}

/// Decodes a buffer that holds exactly one outcome; trailing bytes are
/// invalid.
pub(crate) fn decode_outcome_bytes(bytes: &[u8]) -> Result<CompileOutcome, CodecError> {
    let mut r = ByteReader::new(bytes);
    let outcome = decode_outcome(&mut r)?;
    if !r.is_exhausted() {
        return Err(CodecError::Invalid("trailing outcome bytes"));
    }
    Ok(outcome)
}

/// A finished compile in its stored form: exactly the bytes
/// [`encode_outcome`] writes, in one shared, exact-length buffer. The
/// result cache keeps it and weighs it by its length, the daemon writes it
/// as an `Outcome` payload without encoding again, and a cache file is a
/// header plus the same bytes. A clone shares the buffer.
///
/// Every value was either encoded here or checked by decoding it once
/// ([`EncodedOutcome::from_bytes`]), so [`EncodedOutcome::decode`] cannot
/// fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedOutcome(Arc<[u8]>);

impl EncodedOutcome {
    /// Encodes `outcome`.
    pub fn encode(outcome: &CompileOutcome) -> Self {
        let mut w = ByteWriter::new();
        encode_outcome(&mut w, outcome);
        EncodedOutcome(w.into_bytes().into())
    }

    /// Keeps a copy of `bytes` after checking, by decoding them once, that
    /// they hold exactly one outcome.
    ///
    /// # Errors
    ///
    /// Whatever [`decode_outcome`] raises, and
    /// [`CodecError::Invalid`] for bytes left over after the outcome.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        decode_outcome_bytes(bytes)?;
        Ok(EncodedOutcome(bytes.into()))
    }

    /// Decodes the outcome.
    pub fn decode(&self) -> CompileOutcome {
        decode_outcome_bytes(&self.0).expect("an encoded outcome decodes: it was checked when made")
    }

    /// The encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// `true` when both values share one buffer.
    #[cfg(test)]
    pub(crate) fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
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

/// The bytes [`encode_outcome`] writes for an outcome whose op stream is
/// one two-qubit gate (qubits 0 and 1 in trap 0, chain length 4, distance
/// 1), with the raw bytes `raw` in place of the gate's `field`-th varint
/// (0 and 1 the qubits, 2 the trap, 3 the chain length, 4 the distance),
/// so decoder tests can write any value, or a malformed varint, into an
/// op field.
#[cfg(test)]
pub(crate) fn one_gate_bytes(field: usize, raw: &[u8]) -> Vec<u8> {
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
    let mut bytes = EncodedOutcome::encode(&outcome).as_bytes().to_vec();
    // Three one-byte header varints and the tag, then one byte per field.
    let at = 4 + field;
    assert_eq!(bytes[3..9], [1, 0, 1, 0, 4, 1], "the gate's tag and fields");
    bytes.splice(at..=at, raw.iter().copied());
    bytes
}

/// `v` as [`ByteWriter::put_var`] writes it.
#[cfg(test)]
pub(crate) fn varint(v: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_var(v);
    w.into_bytes()
}

/// An S-SYNC compile of QFT-10 on `grid(2, 2, 5)`, whose program holds
/// all five op kinds.
#[cfg(test)]
pub(crate) fn routed_outcome() -> CompileOutcome {
    let outcome = ssync_core::SSyncCompiler::default()
        .compile(&ssync_circuit::generators::qft(10), &ssync_arch::QccdTopology::grid(2, 2, 5))
        .expect("compiles");
    let kinds: std::collections::HashSet<_> =
        outcome.program().ops().iter().map(std::mem::discriminant).collect();
    assert_eq!(kinds.len(), 5, "every op kind appears");
    outcome
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
        assert_outcome_roundtrip(&routed_outcome());
    }

    /// The bytes of one fixed compile, pinned at wire version 11 and cache
    /// file version 2. Ops are narrower in memory than on the wire, so a
    /// layout change can move these bytes unnoticed by a round trip; if
    /// this fails, bump `WIRE_VERSION` and `PERSIST_VERSION` and re-pin.
    #[test]
    fn outcome_bytes_are_pinned() {
        let outcome = SSyncCompiler::default()
            .compile(&qft(12), &QccdTopology::grid(2, 2, 5))
            .expect("compiles");
        let bytes = EncodedOutcome::encode(&outcome);
        let bytes = bytes.as_bytes();
        // The trailing u64 is the compile time, which differs run to run.
        let mut h = StableHasher::new();
        h.write_bytes(&bytes[..bytes.len() - 8]);
        assert_eq!((bytes.len(), h.finish()), (2_779, 0x476d_bbbb_40fe_4432));
        assert_eq!((crate::wire::WIRE_VERSION, crate::cache::PERSIST_VERSION), (11, 2));
    }

    /// Every varint of every length round-trips, and only its shortest
    /// form decodes.
    #[test]
    fn varints_round_trip_in_their_shortest_form_only() {
        for shift in 0..64 {
            for v in [(1u64 << shift) - 1, 1 << shift, (1 << shift) + 1, u64::MAX >> shift] {
                let bytes = varint(v);
                assert_eq!(bytes.len(), (64 - v.leading_zeros() as usize).div_ceil(7).max(1));
                let mut r = ByteReader::new(&bytes);
                assert_eq!(r.get_var(), Ok(v));
                assert!(r.is_exhausted());
                for cut in 0..bytes.len() {
                    assert_eq!(
                        ByteReader::new(&bytes[..cut]).get_var(),
                        Err(CodecError::Truncated)
                    );
                }
                // The same value with a zero byte appended is overlong.
                let mut padded = bytes.clone();
                *padded.last_mut().expect("non-empty") |= 0x80;
                padded.push(0);
                let overlong = Err(CodecError::Invalid("overlong varint"));
                assert_eq!(ByteReader::new(&padded).get_var(), overlong, "{v}");
            }
        }
        let overlong = Err(CodecError::Invalid("overlong varint"));
        // A tenth byte may carry only bit 63, and there is no eleventh.
        let mut past_64 = vec![0xFF; 9];
        past_64.push(0x02);
        assert_eq!(ByteReader::new(&past_64).get_var(), overlong);
        let mut eleven = vec![0x80; 10];
        eleven.push(0x01);
        assert_eq!(ByteReader::new(&eleven).get_var(), overlong);
    }

    /// Op fields are varints in the stream but `u16` counts and `u32` ids
    /// in memory: the widest value of each decodes, one more is rejected
    /// rather than truncated, and so is an overlong varint.
    #[test]
    fn op_counts_beyond_u16_are_invalid() {
        let decode = |field: usize, raw: &[u8]| {
            decode_outcome_bytes(&one_gate_bytes(field, raw)).map(|o| o.program().ops()[0])
        };
        let (chain_len, trap) = (3, 2);
        assert!(matches!(
            decode(chain_len, &varint(u16::MAX.into())),
            Ok(ScheduledOp::TwoQubitGate { chain_len: u16::MAX, .. })
        ));
        let past_u16 = decode(chain_len, &varint(u64::from(u16::MAX) + 1));
        assert_eq!(past_u16.err(), Some(CodecError::Invalid("op count")));
        assert!(matches!(
            decode(trap, &varint(u32::MAX.into())),
            Ok(ScheduledOp::TwoQubitGate { trap: TrapId(u32::MAX), .. })
        ));
        let past_u32 = decode(trap, &varint(u64::from(u32::MAX) + 1));
        assert_eq!(past_u32.err(), Some(CodecError::Invalid("op id")));
        // 4 written in two bytes instead of one.
        assert_eq!(
            decode(chain_len, &[0x84, 0x00]).err(),
            Some(CodecError::Invalid("overlong varint"))
        );
        assert!(decode(chain_len, &[0x04]).is_ok(), "the shortest form decodes");
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

    /// A corrupt gate list fails at its first bad record in stream order,
    /// with the same error kinds whichever record it is; a gate count the
    /// remaining bytes cannot hold fails before anything is reserved.
    #[test]
    fn circuit_decode_reports_the_first_bad_gate() {
        let mut circuit = Circuit::new(3);
        circuit.cx(Qubit(0), Qubit(1));
        circuit.h(Qubit(2));
        circuit.rz(Qubit(1), 0.5);
        let mut w = ByteWriter::new();
        encode_circuit(&mut w, &circuit);
        let bytes = w.into_bytes();
        // Width, the empty name's length, then the gate count.
        let records = 3 * 8;
        let record = |i: usize| records + i * GATE_RECORD_BYTES;
        let decode = |bytes: &[u8]| decode_circuit(&mut ByteReader::new(bytes)).err();
        assert_eq!(decode(&bytes), None);

        let mut corrupt = bytes.clone();
        corrupt[record(1) + 1..record(1) + 5].copy_from_slice(&7u32.to_le_bytes());
        corrupt[record(2)] = 13;
        assert_eq!(decode(&corrupt), Some(CodecError::Invalid("gate operands")));
        corrupt[record(0)] = 0xEE;
        assert_eq!(decode(&corrupt), Some(CodecError::BadTag { what: "gate", tag: 0xEE }));

        let mut overlong = bytes.clone();
        overlong[records - 8..records].copy_from_slice(&4u64.to_le_bytes());
        assert_eq!(decode(&overlong), Some(CodecError::BadLength));
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_some(), "cut {cut} decoded");
        }
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
    /// recording describes one scheduling run, served by trace id from
    /// the compile's run report: it is never part of an outcome, so a
    /// recorder-on compile encodes to the same bytes as a recorder-off
    /// one, compile time aside.
    #[test]
    fn flight_recorder_stays_off_the_wire() {
        let compiler = SSyncCompiler::default();
        let device = Device::build(QccdTopology::grid(2, 2, 5), compiler.config().weights);
        let encode = |recorder: bool| {
            let mut scratch = CompileScratch::new(recorder);
            let (outcome, run) = compiler
                .compile_on_with_scratch(&device, &qft(10), &mut scratch)
                .expect("compiles");
            assert_eq!(run.recording.is_some(), recorder);
            let mut w = ByteWriter::new();
            encode_outcome(&mut w, &outcome);
            w.into_bytes()
        };
        let (on, off) = (encode(true), encode(false));
        // The trailing u64 is the compile time, which differs run to run.
        assert_eq!(on[..on.len() - 8], off[..off.len() - 8]);
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

    /// A routed outcome holding all five op kinds: every truncation, a
    /// trailing byte, a bad op tag and a giant length prefix each fail
    /// with a codec error, never a panic.
    #[test]
    fn truncated_and_corrupt_input_fail_cleanly() {
        let bytes = EncodedOutcome::encode(&routed_outcome());
        let bytes = bytes.as_bytes();
        for cut in 0..bytes.len() {
            assert!(decode_outcome_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut padded = bytes.to_vec();
        padded.push(0);
        assert_eq!(
            decode_outcome_bytes(&padded).err(),
            Some(CodecError::Invalid("trailing outcome bytes"))
        );
        // The first op's tag follows the width, trap and op-count varints.
        let program = routed_outcome().program().clone();
        let first_op = [program.num_qubits(), program.num_traps(), program.len()]
            .map(|v| varint(v as u64).len());
        let mut corrupt = bytes.to_vec();
        corrupt[first_op.iter().sum::<usize>()] = 0xEE;
        assert_eq!(
            decode_outcome_bytes(&corrupt).err(),
            Some(CodecError::BadTag { what: "scheduled op", tag: 0xEE })
        );
        // A giant length prefix is rejected without allocating.
        assert_eq!(ByteReader::new(&varint(u64::MAX)).get_var_len(1), Err(CodecError::BadLength));
        let mut huge = ByteWriter::new();
        huge.put_u64(u64::MAX);
        let huge = huge.into_bytes();
        assert!(matches!(ByteReader::new(&huge).get_len(1), Err(CodecError::BadLength)));
    }

    fn routed_bytes() -> &'static [u8] {
        static BYTES: std::sync::OnceLock<EncodedOutcome> = std::sync::OnceLock::new();
        BYTES.get_or_init(|| EncodedOutcome::encode(&routed_outcome())).as_bytes()
    }

    /// Decoding is total and exact: bytes that decode at all re-encode to
    /// themselves, so no damaged stream passes for a different outcome
    /// that happens to parse.
    fn decodes_exactly_or_fails(bytes: &[u8]) {
        if let Ok(outcome) = decode_outcome_bytes(bytes) {
            assert_eq!(EncodedOutcome::encode(&outcome).as_bytes(), bytes);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// A routed outcome cut short, or with one byte's bits flipped,
        /// ends in a codec error or an outcome that re-encodes to exactly
        /// the damaged bytes — never a panic.
        #[test]
        fn damaged_outcomes_fail_cleanly(cut in 0usize..1 << 16, at in 0usize..1 << 16, mask in 1u16..256) {
            let bytes = routed_bytes();
            decodes_exactly_or_fails(&bytes[..cut % bytes.len()]);
            let mut flipped = bytes.to_vec();
            flipped[at % bytes.len()] ^= mask as u8;
            decodes_exactly_or_fails(&flipped);
        }
    }
}
