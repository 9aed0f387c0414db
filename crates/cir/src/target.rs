//! Target/ISA descriptors: the machine-description layer that makes the
//! generator retargetable (paper §3: LGen/SLinGen emit SSE4, AVX, and KNC
//! code from one machine description).
//!
//! A [`Target`] names an instruction-set level; its [`TargetDesc`] bundles
//! everything the rest of the system needs to specialize for it:
//!
//! * the supported vector widths ν (the autotuner derives its ν axis from
//!   these — code wider than the vector unit is never a candidate);
//! * instruction *capabilities*: fused multiply-add, masked loads/stores,
//!   and immediate blends (capabilities gate both the Stage-3
//!   [`crate::passes::contract`] pass and the intrinsic families the
//!   unparser may emit);
//! * a per-op latency/throughput [`CostTable`] from which
//!   `slingen-perf`'s `Machine` is built.
//!
//! Four targets ship: [`Target::Scalar`], [`Target::Sse2`],
//! [`Target::Avx2`] (the historical default — its cost table is the Sandy
//! Bridge model the reproduction has always used, plus host-fitted
//! lane-crossing and code-footprint entries), and
//! [`Target::Avx2Fma`] (the same core with FMA: a fused op issues on the
//! add port, in place of the add it absorbed). New backends (AVX-512, NEON) are one new
//! descriptor plus an unparser emitter away.

use std::fmt;

/// An instruction-set target for code generation, modeling, and emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Target {
    /// Plain scalar C (no vector unit).
    Scalar,
    /// 128-bit SSE2: vector arithmetic, no immediate blends, no masked
    /// memory ops (leftovers go through element code).
    Sse2,
    /// 256-bit AVX2: masked loads/stores, immediate blends; no FMA. The
    /// default target, cost-modeled as the paper's Sandy Bridge i7-2600.
    Avx2,
    /// 256-bit AVX2 with fused multiply-add (`_mm256_fmadd_pd`).
    Avx2Fma,
}

/// Per-op latency/throughput numbers of a target (fractional cycles).
///
/// Capacities are unit-slots per cycle; memory units are 128-bit (a
/// 256-bit access consumes two). These feed `slingen_perf::Machine`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostTable {
    /// FP multiplies issued per cycle.
    pub fmul_per_cycle: f64,
    /// FP adds issued per cycle (fused multiply-adds share this port).
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
    /// FP multiply latency.
    pub fmul_latency: f64,
    /// FP add latency.
    pub fadd_latency: f64,
    /// Fused multiply-add latency (meaningful when `fma` is set).
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
    /// Divider occupancy & latency for a scalar divide/sqrt.
    pub div_scalar_cycles: f64,
    /// Divider occupancy & latency for a vector divide/sqrt.
    pub div_vector_cycles: f64,
    /// Extra latency, on top of the in-lane shuffle step, of a 256-bit
    /// op that moves data between the two 128-bit lanes (`vperm2f128`,
    /// `vinsertf128`, `vextractf128`). Charged only at ν = 4.
    pub cross_lane_latency: f64,
    /// Shuffle-port slots such a lane-crossing op occupies (an in-lane
    /// shuffle takes 1).
    pub cross_lane_units: f64,
    /// Bytes of machine code per C-IR instruction, for the code
    /// footprint.
    pub bytes_per_instr: f64,
    /// L1 instruction cache size in bytes. A body whose footprint
    /// exceeds it streams from L2 and runs at the fetch rate at best.
    pub l1i_bytes: f64,
    /// Code bytes fetched per model cycle when the body misses L1i.
    pub fetch_bytes_per_cycle: f64,
    /// The vector width the peak numbers assume.
    pub nominal_width: usize,
}

/// The full descriptor of one target: name, widths, capabilities, costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetDesc {
    /// Short stable name (used in cache keys, CLI flags, file names).
    pub name: &'static str,
    /// Human-readable machine-model name.
    pub machine_name: &'static str,
    /// Supported vector widths ν, ascending; always contains 1.
    pub widths: &'static [usize],
    /// Fused multiply-add available (`fma()` / `_mm_fmadd_pd` /
    /// `_mm256_fmadd_pd`).
    pub fma: bool,
    /// Masked vector loads/stores available (`maskload`/`maskstore`).
    pub masked_mem: bool,
    /// Immediate lane blends available (`blendpd`).
    pub blend: bool,
    /// Latency/throughput tables.
    pub costs: CostTable,
}

/// The historical Sandy Bridge numbers (the reproduction's original fixed
/// machine model) plus host-fitted entries: the lane-crossing latency and
/// occupancy and the code-footprint constants. `bench --calibrate` times
/// a cross-lane chain against an in-lane one (latency, and throughput for
/// the occupancy); the footprint constants come
/// from `size` of compiled ν = 4 bodies (about 7 bytes per C-IR
/// instruction) and from the measured slowdown of bodies that outgrow
/// the 32 KiB L1i (trtri32 lazy/nu2 against lazy/nu4).
const SANDY_BRIDGE_COSTS: CostTable = CostTable {
    fmul_per_cycle: 1.0,
    fadd_per_cycle: 1.0,
    shuffle_per_cycle: 1.0,
    blend_per_cycle: 2.0,
    mov_per_cycle: 3.0,
    load_units_per_cycle: 2.0,
    store_units_per_cycle: 1.0,
    fmul_latency: 5.0,
    fadd_latency: 3.0,
    fma_latency: 5.0,
    shuffle_latency: 1.0,
    blend_latency: 1.0,
    mov_latency: 1.0,
    load_latency: 4.0,
    store_latency: 4.0,
    div_scalar_cycles: 22.0,
    div_vector_cycles: 44.0,
    cross_lane_latency: 3.0,
    cross_lane_units: 2.0,
    bytes_per_instr: 7.0,
    l1i_bytes: 32768.0,
    fetch_bytes_per_cycle: 9.0,
    nominal_width: 4,
};

const SCALAR_DESC: TargetDesc = TargetDesc {
    name: "scalar",
    machine_name: "scalar x86-64 (SSE2 scalar, double)",
    widths: &[1],
    fma: false,
    masked_mem: false,
    blend: false,
    costs: CostTable {
        nominal_width: 1,
        // one flop per slot either way; the divider never sees vectors
        div_vector_cycles: 22.0,
        ..SANDY_BRIDGE_COSTS
    },
};

const SSE2_DESC: TargetDesc = TargetDesc {
    name: "sse2",
    machine_name: "SSE2 (128-bit, double)",
    widths: &[1, 2],
    fma: false,
    masked_mem: false,
    blend: false,
    costs: CostTable {
        nominal_width: 2,
        // a 128-bit divide occupies the divider for less than a 256-bit one
        div_vector_cycles: 32.0,
        ..SANDY_BRIDGE_COSTS
    },
};

const AVX2_DESC: TargetDesc = TargetDesc {
    name: "avx2",
    machine_name: "Sandy Bridge (i7-2600, AVX, double)",
    widths: &[1, 2, 4],
    fma: false,
    masked_mem: true,
    blend: true,
    costs: SANDY_BRIDGE_COSTS,
};

const AVX2_FMA_DESC: TargetDesc = TargetDesc {
    name: "avx2fma",
    machine_name: "Haswell-class (AVX2+FMA, double)",
    widths: &[1, 2, 4],
    fma: true,
    masked_mem: true,
    blend: true,
    // identical core otherwise, so Avx2Fma-vs-Avx2 deltas isolate the
    // effect of contraction rather than of unrelated cost-table changes.
    // The fused op completes within the *add* latency (Skylake-style
    // cores execute FP adds on the FMA units at equal latency), so
    // contracting an accumulation chain — where the addend is the
    // loop-carried dependency — never lengthens the critical path.
    costs: CostTable { fma_latency: 3.0, ..SANDY_BRIDGE_COSTS },
};

impl Target {
    /// All shipped targets, in capability order.
    pub const ALL: [Target; 4] = [Target::Scalar, Target::Sse2, Target::Avx2, Target::Avx2Fma];

    /// The full descriptor.
    pub fn desc(self) -> &'static TargetDesc {
        match self {
            Target::Scalar => &SCALAR_DESC,
            Target::Sse2 => &SSE2_DESC,
            Target::Avx2 => &AVX2_DESC,
            Target::Avx2Fma => &AVX2_FMA_DESC,
        }
    }

    /// Short stable name (`scalar`, `sse2`, `avx2`, `avx2fma`).
    pub fn name(self) -> &'static str {
        self.desc().name
    }

    /// Supported vector widths ν, ascending.
    pub fn widths(self) -> &'static [usize] {
        self.desc().widths
    }

    /// The widest supported ν.
    pub fn max_width(self) -> usize {
        *self.desc().widths.last().expect("non-empty width list")
    }

    /// Whether `nu` is a supported vector width.
    pub fn supports_width(self, nu: usize) -> bool {
        self.desc().widths.contains(&nu)
    }

    /// Fused multiply-add available.
    pub fn has_fma(self) -> bool {
        self.desc().fma
    }

    /// Masked vector loads/stores available.
    pub fn has_masked_mem(self) -> bool {
        self.desc().masked_mem
    }

    /// Immediate lane blends available.
    pub fn has_blend(self) -> bool {
        self.desc().blend
    }

    /// Per-op latency/throughput tables.
    pub fn costs(self) -> &'static CostTable {
        &self.desc().costs
    }

    /// Parse a target from its stable name (case-insensitive; accepts a
    /// few aliases like `avx` and `avx2+fma`).
    pub fn parse(s: &str) -> Option<Target> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" | "none" => Some(Target::Scalar),
            "sse2" | "sse" => Some(Target::Sse2),
            "avx2" | "avx" => Some(Target::Avx2),
            "avx2fma" | "avx2+fma" | "fma" => Some(Target::Avx2Fma),
            _ => None,
        }
    }
}

impl Default for Target {
    /// The historical default: AVX2 without FMA (Sandy Bridge model).
    fn default() -> Self {
        Target::Avx2
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_target_supports_scalar_width() {
        for t in Target::ALL {
            assert!(t.supports_width(1), "{t} must support ν=1");
            assert_eq!(*t.widths().first().unwrap(), 1);
        }
    }

    #[test]
    fn widths_are_ascending_and_max_matches() {
        for t in Target::ALL {
            let w = t.widths();
            assert!(w.windows(2).all(|p| p[0] < p[1]), "{t} widths not ascending");
            assert_eq!(t.max_width(), *w.last().unwrap());
        }
    }

    #[test]
    fn names_round_trip_through_parse() {
        for t in Target::ALL {
            assert_eq!(Target::parse(t.name()), Some(t), "{t}");
        }
        assert_eq!(Target::parse("AVX2+FMA"), Some(Target::Avx2Fma));
        assert_eq!(Target::parse("mmx"), None);
    }

    #[test]
    fn capability_lattice_is_monotone() {
        // each shipped target is at least as capable as the previous one
        assert!(!Target::Scalar.has_fma() && !Target::Scalar.has_blend());
        assert!(!Target::Sse2.has_masked_mem() && !Target::Sse2.has_blend());
        assert!(Target::Avx2.has_masked_mem() && Target::Avx2.has_blend());
        assert!(!Target::Avx2.has_fma());
        assert!(Target::Avx2Fma.has_fma());
    }

    #[test]
    fn avx2_costs_are_the_sandy_bridge_numbers() {
        let c = Target::Avx2.costs();
        assert_eq!(c.fmul_latency, 5.0);
        assert_eq!(c.div_vector_cycles, 44.0);
        assert_eq!(c.nominal_width, 4);
    }

    #[test]
    fn cost_tables_are_distinct_per_target() {
        // nominal width + capability mix distinguish every pair
        let fingerprints: Vec<(usize, f64, bool)> = Target::ALL
            .iter()
            .map(|t| (t.costs().nominal_width, t.costs().div_vector_cycles, t.has_fma()))
            .collect();
        for i in 0..fingerprints.len() {
            for j in i + 1..fingerprints.len() {
                assert_ne!(fingerprints[i], fingerprints[j], "{:?}", (i, j));
            }
        }
    }

    #[test]
    fn default_is_avx2() {
        assert_eq!(Target::default(), Target::Avx2);
    }
}
