//! Strongly-typed identifiers and sizes shared across the workspace.

use serde::{Deserialize, Serialize};

/// Position of a token in the sequence (0-based).
///
/// # Examples
///
/// ```
/// use clusterkv_kvcache::TokenId;
/// let t = TokenId(5);
/// assert_eq!(t.index(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TokenId(pub usize);

impl TokenId {
    /// The raw positional index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for TokenId {
    fn from(v: usize) -> Self {
        TokenId(v)
    }
}

impl std::fmt::Display for TokenId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Index of a transformer layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LayerId(pub usize);

impl From<usize> for LayerId {
    fn from(v: usize) -> Self {
        LayerId(v)
    }
}

/// Index of an attention head within a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HeadId(pub usize);

impl From<usize> for HeadId {
    fn from(v: usize) -> Self {
        HeadId(v)
    }
}

/// KV-cache budget: the number of tokens whose keys/values participate in
/// the approximated attention computation (`B` in the paper).
///
/// # Examples
///
/// ```
/// use clusterkv_kvcache::Budget;
/// let b = Budget::new(1024);
/// assert_eq!(b.tokens(), 1024);
/// assert!(b.covers(1000));
/// assert!(!b.covers(2000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Budget(usize);

impl Budget {
    /// Create a budget of `tokens` tokens.
    pub fn new(tokens: usize) -> Self {
        Budget(tokens)
    }

    /// Number of tokens allowed by the budget.
    #[inline]
    pub fn tokens(self) -> usize {
        self.0
    }

    /// Whether a context of `len` tokens fits entirely inside the budget
    /// (in which case compression is a no-op and full attention is exact).
    #[inline]
    pub fn covers(self, len: usize) -> bool {
        len <= self.0
    }
}

impl From<usize> for Budget {
    fn from(v: usize) -> Self {
        Budget(v)
    }
}

impl std::fmt::Display for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "B={}", self.0)
    }
}

/// Size in bytes, used by the device/transfer model.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Bytes occupied by `n` f16 values (the KV dtype assumed by the cost
    /// model, matching the fp16 inference of the paper's testbed).
    pub fn of_f16(n: usize) -> Self {
        Bytes(2 * n as u64)
    }

    /// Raw byte count.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Convert to (binary) gigabytes.
    pub fn to_gib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }
}

impl std::ops::Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes(0), |a, b| a + b)
    }
}

impl std::fmt::Display for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1 << 30 {
            write!(f, "{:.2} GiB", self.to_gib())
        } else if self.0 >= 1 << 20 {
            write!(f, "{:.2} MiB", self.0 as f64 / (1024.0 * 1024.0))
        } else if self.0 >= 1 << 10 {
            write!(f, "{:.2} KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_id_display_and_conversion() {
        let t: TokenId = 7usize.into();
        assert_eq!(t.to_string(), "t7");
        assert_eq!(t.index(), 7);
    }

    #[test]
    fn budget_covers_boundary() {
        let b = Budget::new(256);
        assert!(b.covers(256));
        assert!(!b.covers(257));
        assert_eq!(b.to_string(), "B=256");
    }

    #[test]
    fn budget_ordering_follows_token_count() {
        assert!(Budget::new(256) < Budget::new(512));
        assert_eq!(Budget::from(512usize), Budget::new(512));
    }

    #[test]
    fn bytes_arithmetic_and_display() {
        let b = Bytes::of_f16(1024) + Bytes(256);
        assert_eq!(b.get(), 2 * 1024 + 256);
        assert!(Bytes(3 * 1024 * 1024 * 1024).to_string().contains("GiB"));
        assert!(Bytes(5 * 1024 * 1024).to_string().contains("MiB"));
        assert!(Bytes(2048).to_string().contains("KiB"));
        assert!(Bytes(12).to_string().contains("B"));
    }

    #[test]
    fn bytes_sum_over_iterator() {
        let total: Bytes = vec![Bytes(1), Bytes(2), Bytes(3)].into_iter().sum();
        assert_eq!(total, Bytes(6));
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        use std::collections::BTreeSet;
        let set: BTreeSet<LayerId> = [LayerId(2), LayerId(0), LayerId(1)].into_iter().collect();
        let v: Vec<usize> = set.into_iter().map(|l| l.0).collect();
        assert_eq!(v, vec![0, 1, 2]);
        let h: HeadId = 3usize.into();
        assert_eq!(h, HeadId(3));
    }
}
