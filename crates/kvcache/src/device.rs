//! Analytical device cost model.
//!
//! The paper's efficiency results (Fig. 12, Fig. 13) were measured on an
//! NVIDIA Ada 6000 GPU with KV offloading to CPU memory over PCIe. No GPU is
//! available in this environment, so latency is estimated with a
//! roofline-style analytical model: every operation is charged the maximum of
//! its memory time (bytes touched / bandwidth) and its compute time
//! (FLOPs / peak throughput), plus a fixed launch overhead. Decoding with a
//! long context is strongly memory-bound, which is exactly the regime the
//! paper exploits, so the *shape* of the comparisons survives the
//! substitution (see `DESIGN.md` §2 at the repository root for the full
//! rationale, and §3 there for the memory hierarchy this model prices).

use crate::types::Bytes;
use serde::{Deserialize, Serialize};

/// Seconds, as a plain `f64` newtype to keep units explicit.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Seconds(pub f64);

impl Seconds {
    /// Zero duration.
    pub fn zero() -> Self {
        Seconds(0.0)
    }

    /// Raw seconds value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl std::ops::Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl std::ops::Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl std::iter::Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        iter.fold(Seconds::zero(), |a, b| a + b)
    }
}

impl std::fmt::Display for Seconds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3} ms", self.0 * 1e3)
        } else {
            write!(f, "{:.1} µs", self.0 * 1e6)
        }
    }
}

/// Analytical model of the accelerator + host used to estimate latency.
///
/// Defaults approximate the paper's testbed (NVIDIA Ada 6000, PCIe 4.0 x16).
///
/// # Examples
///
/// ```
/// use clusterkv_kvcache::DeviceModel;
/// use clusterkv_kvcache::types::Bytes;
///
/// let dev = DeviceModel::ada6000();
/// // Reading 1 GiB from HBM takes on the order of a millisecond.
/// let t = dev.hbm_read_time(Bytes(1 << 30));
/// assert!(t.get() > 0.0 && t.get() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceModel {
    /// GPU memory bandwidth in bytes/second.
    pub hbm_bandwidth: f64,
    /// Host-to-device (PCIe) bandwidth in bytes/second.
    pub pcie_bandwidth: f64,
    /// Peak fp16 compute throughput in FLOP/s.
    pub peak_flops: f64,
    /// Fixed overhead charged per kernel launch, in seconds.
    pub kernel_overhead: f64,
    /// Achievable fraction of peak bandwidth/compute for dense GEMM-style
    /// kernels (0..1].
    pub efficiency: f64,
    /// Achievable fraction of peak memory bandwidth for attention over the
    /// KV cache. Long-context attention with masking, softmax and gather
    /// reads achieves a much lower fraction of peak than streaming GEMMs —
    /// this is what makes KV-cache compression profitable in the first
    /// place.
    pub attention_efficiency: f64,
}

impl DeviceModel {
    /// Parameters approximating the NVIDIA RTX 6000 Ada used in the paper:
    /// ~960 GB/s HBM bandwidth, ~91 TFLOPS fp16 (without sparsity), PCIe 4.0
    /// x16 at ~25 GB/s effective.
    pub fn ada6000() -> Self {
        Self {
            hbm_bandwidth: 960e9,
            pcie_bandwidth: 25e9,
            peak_flops: 91e12,
            kernel_overhead: 5e-6,
            efficiency: 0.7,
            attention_efficiency: 0.15,
        }
    }

    /// A smaller PCIe-constrained configuration resembling the FlexGen/OPT
    /// offloading setup used for the InfiniGen comparison (Fig. 13a).
    pub fn offload_constrained() -> Self {
        Self {
            pcie_bandwidth: 16e9,
            ..Self::ada6000()
        }
    }

    /// Time to read `bytes` from GPU memory.
    pub fn hbm_read_time(&self, bytes: Bytes) -> Seconds {
        Seconds(self.kernel_overhead + bytes.get() as f64 / (self.hbm_bandwidth * self.efficiency))
    }

    /// Time to move `bytes` from CPU memory to GPU memory over PCIe.
    pub fn transfer_time(&self, bytes: Bytes) -> Seconds {
        if bytes.get() == 0 {
            return Seconds::zero();
        }
        Seconds(self.kernel_overhead + bytes.get() as f64 / (self.pcie_bandwidth * self.efficiency))
    }

    /// Time to read `bytes` of KV cache during attention, priced at the
    /// lower attention-kernel bandwidth efficiency.
    pub fn attention_read_time(&self, bytes: Bytes) -> Seconds {
        Seconds(
            self.kernel_overhead
                + bytes.get() as f64 / (self.hbm_bandwidth * self.attention_efficiency),
        )
    }

    /// Roofline estimate: the maximum of memory time and compute time plus a
    /// single launch overhead.
    pub fn roofline_time(&self, bytes: Bytes, flops: f64) -> Seconds {
        let mem = bytes.get() as f64 / (self.hbm_bandwidth * self.efficiency);
        let cmp = flops / (self.peak_flops * self.efficiency);
        Seconds(self.kernel_overhead + mem.max(cmp))
    }
}

impl Default for DeviceModel {
    fn default() -> Self {
        Self::ada6000()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_display_scales_units() {
        assert!(Seconds(2.5).to_string().contains("s"));
        assert!(Seconds(2.5e-3).to_string().contains("ms"));
        assert!(Seconds(2.5e-6).to_string().contains("µs"));
    }

    #[test]
    fn seconds_arithmetic() {
        let s = Seconds(1.0) + Seconds(0.5);
        assert!((s.get() - 1.5).abs() < 1e-12);
        let total: Seconds = vec![Seconds(0.1); 10].into_iter().sum();
        assert!((total.get() - 1.0).abs() < 1e-9);
        assert!(((Seconds(2.0) * 3.0).get() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn hbm_is_faster_than_pcie() {
        let dev = DeviceModel::ada6000();
        let b = Bytes(1 << 30);
        assert!(dev.hbm_read_time(b) < dev.transfer_time(b));
    }

    #[test]
    fn zero_transfer_is_free() {
        let dev = DeviceModel::ada6000();
        assert_eq!(dev.transfer_time(Bytes(0)), Seconds::zero());
    }

    #[test]
    fn roofline_picks_the_binding_resource() {
        let dev = DeviceModel::ada6000();
        // Huge bytes, tiny flops => memory bound: roofline ~ hbm time.
        let mem_bound = dev.roofline_time(Bytes(1 << 30), 1.0);
        let mem_only = dev.hbm_read_time(Bytes(1 << 30));
        assert!((mem_bound.get() - mem_only.get()).abs() / mem_only.get() < 0.01);
        // Tiny bytes, huge flops => compute bound.
        let cmp_bound = dev.roofline_time(Bytes(16), 1e15);
        let cmp_only = Seconds(dev.kernel_overhead + 1e15 / (dev.peak_flops * dev.efficiency));
        assert!((cmp_bound.get() - cmp_only.get()).abs() / cmp_only.get() < 0.01);
    }

    #[test]
    fn attention_reads_are_slower_than_gemm_reads() {
        let dev = DeviceModel::ada6000();
        let b = Bytes(1 << 30);
        assert!(dev.attention_read_time(b) > dev.hbm_read_time(b));
    }

    #[test]
    fn more_bytes_take_longer() {
        let dev = DeviceModel::default();
        assert!(dev.transfer_time(Bytes(2 << 20)) > dev.transfer_time(Bytes(1 << 20)));
        assert!(dev.hbm_read_time(Bytes(2 << 20)) > dev.hbm_read_time(Bytes(1 << 20)));
    }

    #[test]
    fn offload_constrained_has_slower_pcie() {
        let a = DeviceModel::ada6000();
        let b = DeviceModel::offload_constrained();
        assert!(b.transfer_time(Bytes(1 << 30)) > a.transfer_time(Bytes(1 << 30)));
    }
}
