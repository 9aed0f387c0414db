//! Machine descriptions: issue resources, throughputs, latencies.
//!
//! A [`Machine`] is built *from* a [`slingen_cir::Target`] descriptor
//! ([`Machine::from_target`]): the target carries the per-op cost tables
//! and capability flags, this module turns them into the resource model
//! the scheduler charges against. The historical
//! [`Machine::sandy_bridge`] constructor is the [`Target::Avx2`] machine.

use slingen_cir::Target;
use std::fmt;

/// An issue resource (execution port or fixed-function unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// FP multiply port.
    FMul,
    /// FP add port.
    FAdd,
    /// The (unpipelined) divide/sqrt unit.
    Divider,
    /// Shuffle/permute port.
    Shuffle,
    /// Blend capacity.
    Blend,
    /// L1 load units.
    Load,
    /// L1 store unit.
    Store,
    /// Register moves / broadcasts.
    Mov,
}

impl Resource {
    /// The number of resources.
    pub const COUNT: usize = 8;

    /// All resources, for iteration.
    pub const ALL: [Resource; Resource::COUNT] = [
        Resource::FMul,
        Resource::FAdd,
        Resource::Divider,
        Resource::Shuffle,
        Resource::Blend,
        Resource::Load,
        Resource::Store,
        Resource::Mov,
    ];

    /// Dense index in `0..COUNT`, in [`Resource::ALL`] order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable single-token name used in the on-disk cache wire format
    /// (see [`crate::Report::to_wire`]). Never reorder or rename these:
    /// persisted caches parse them back with [`Resource::parse_wire`].
    pub fn wire_name(self) -> &'static str {
        match self {
            Resource::FMul => "fmul",
            Resource::FAdd => "fadd",
            Resource::Divider => "div",
            Resource::Shuffle => "shuf",
            Resource::Blend => "blend",
            Resource::Load => "load",
            Resource::Store => "store",
            Resource::Mov => "mov",
        }
    }

    /// Inverse of [`Resource::wire_name`].
    pub fn parse_wire(s: &str) -> Option<Resource> {
        Resource::ALL.iter().copied().find(|r| r.wire_name() == s)
    }

    /// Short label used in reports (matches the paper's vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            Resource::FMul => "fp mul",
            Resource::FAdd => "fp add",
            Resource::Divider => "divs/sqrt",
            Resource::Shuffle => "shuffles",
            Resource::Blend => "blends",
            Resource::Load => "L1 loads",
            Resource::Store => "L1 stores",
            Resource::Mov => "reg moves",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A machine model: per-resource capacity (unit-slots per cycle) and
/// instruction latencies.
///
/// Capacities are in *units per cycle*; an instruction consumes some number
/// of units on one or more resources (e.g. a 256-bit load consumes 2 load
/// units; a scalar load consumes 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Model name (for reports).
    pub name: String,
    /// FP multiplies issued per cycle (vector or scalar).
    pub fmul_per_cycle: f64,
    /// FP adds issued per cycle.
    pub fadd_per_cycle: f64,
    /// Shuffles issued per cycle.
    pub shuffle_per_cycle: f64,
    /// Blends issued per cycle.
    pub blend_per_cycle: f64,
    /// Register moves/broadcasts per cycle.
    pub mov_per_cycle: f64,
    /// Load unit-slots per cycle (128-bit units).
    pub load_units_per_cycle: f64,
    /// Store unit-slots per cycle (128-bit units).
    pub store_units_per_cycle: f64,
    /// FP multiply latency (cycles).
    pub fmul_latency: f64,
    /// FP add latency (cycles).
    pub fadd_latency: f64,
    /// Fused multiply-add latency (cycles). FMA occupies the add port,
    /// in place of the add it absorbed, so there is no separate capacity
    /// knob.
    pub fma_latency: f64,
    /// Shuffle latency.
    pub shuffle_latency: f64,
    /// Blend latency.
    pub blend_latency: f64,
    /// Move latency.
    pub mov_latency: f64,
    /// L1 load-to-use latency.
    pub load_latency: f64,
    /// Store-to-load forwarding latency.
    pub store_latency: f64,
    /// Divider occupancy & latency for a *scalar* divide or sqrt.
    pub div_scalar_cycles: f64,
    /// Divider occupancy & latency for a *vector* divide or sqrt.
    pub div_vector_cycles: f64,
    /// Extra latency of a 256-bit op that crosses the 128-bit lanes.
    pub cross_lane_latency: f64,
    /// Shuffle-port slots a lane-crossing op occupies.
    pub cross_lane_units: f64,
    /// Machine-code bytes per C-IR instruction.
    pub bytes_per_instr: f64,
    /// L1 instruction cache size in bytes.
    pub l1i_bytes: f64,
    /// Code bytes fetched per cycle once a body outgrows L1i.
    pub fetch_bytes_per_cycle: f64,
    /// The vector width the peak numbers assume (for reports only).
    pub nominal_width: usize,
}

impl Machine {
    /// Build the machine model for a [`Target`] from its cost tables.
    ///
    /// Every shipped target has a distinct table (see
    /// [`slingen_cir::target`]); [`Target::Avx2`] reproduces the
    /// historical Sandy Bridge numbers exactly, and [`Target::Avx2Fma`]
    /// differs from it only by executing fused multiply-adds — so cycle
    /// deltas between the two isolate the effect of FMA contraction.
    pub fn from_target(target: Target) -> Machine {
        let c = target.costs();
        Machine {
            name: target.desc().machine_name.to_string(),
            fmul_per_cycle: c.fmul_per_cycle,
            fadd_per_cycle: c.fadd_per_cycle,
            shuffle_per_cycle: c.shuffle_per_cycle,
            blend_per_cycle: c.blend_per_cycle,
            mov_per_cycle: c.mov_per_cycle,
            load_units_per_cycle: c.load_units_per_cycle,
            store_units_per_cycle: c.store_units_per_cycle,
            fmul_latency: c.fmul_latency,
            fadd_latency: c.fadd_latency,
            fma_latency: c.fma_latency,
            shuffle_latency: c.shuffle_latency,
            blend_latency: c.blend_latency,
            mov_latency: c.mov_latency,
            load_latency: c.load_latency,
            store_latency: c.store_latency,
            div_scalar_cycles: c.div_scalar_cycles,
            div_vector_cycles: c.div_vector_cycles,
            cross_lane_latency: c.cross_lane_latency,
            cross_lane_units: c.cross_lane_units,
            bytes_per_instr: c.bytes_per_instr,
            l1i_bytes: c.l1i_bytes,
            fetch_bytes_per_cycle: c.fetch_bytes_per_cycle,
            nominal_width: c.nominal_width,
        }
    }

    /// The paper's evaluation platform: Intel Core i7-2600 (Sandy Bridge),
    /// AVX, double precision, ν = 4. Peak 8 flops/cycle. Identical to
    /// `Machine::from_target(Target::Avx2)`.
    pub fn sandy_bridge() -> Machine {
        Machine::from_target(Target::Avx2)
    }

    /// Peak flops/cycle (mul + add ports, nominal width).
    pub fn peak_flops_per_cycle(&self) -> f64 {
        (self.fmul_per_cycle + self.fadd_per_cycle) * self.nominal_width as f64
    }

    /// The front-end floor on the cycles of a body of `static_instrs`
    /// instructions: 0 while its code fits in L1i, otherwise the time to
    /// fetch all of it.
    pub fn footprint_cycles(&self, static_instrs: usize) -> f64 {
        let bytes = static_instrs as f64 * self.bytes_per_instr;
        if bytes > self.l1i_bytes {
            bytes / self.fetch_bytes_per_cycle
        } else {
            0.0
        }
    }

    /// Capacity in units/cycle for a resource.
    pub fn capacity(&self, r: Resource) -> f64 {
        match r {
            Resource::FMul => self.fmul_per_cycle,
            Resource::FAdd => self.fadd_per_cycle,
            Resource::Divider => 1.0,
            Resource::Shuffle => self.shuffle_per_cycle,
            Resource::Blend => self.blend_per_cycle,
            Resource::Load => self.load_units_per_cycle,
            Resource::Store => self.store_units_per_cycle,
            Resource::Mov => self.mov_per_cycle,
        }
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::sandy_bridge()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sandy_bridge_peak_is_8_flops_per_cycle() {
        let m = Machine::sandy_bridge();
        assert_eq!(m.peak_flops_per_cycle(), 8.0);
    }

    #[test]
    fn sandy_bridge_is_the_avx2_target_machine() {
        assert_eq!(Machine::sandy_bridge(), Machine::from_target(Target::Avx2));
    }

    #[test]
    fn per_target_machines_are_distinct() {
        let machines: Vec<Machine> = Target::ALL.iter().map(|t| Machine::from_target(*t)).collect();
        for i in 0..machines.len() {
            for j in i + 1..machines.len() {
                assert_ne!(
                    machines[i], machines[j],
                    "{} vs {}",
                    machines[i].name, machines[j].name
                );
            }
        }
    }

    #[test]
    fn nominal_width_tracks_target_max_width() {
        for t in Target::ALL {
            assert_eq!(Machine::from_target(t).nominal_width, t.max_width());
        }
    }

    #[test]
    fn capacities_are_positive() {
        let m = Machine::sandy_bridge();
        for r in Resource::ALL {
            assert!(m.capacity(r) > 0.0, "{r} has zero capacity");
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            Resource::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), Resource::ALL.len());
    }
}
