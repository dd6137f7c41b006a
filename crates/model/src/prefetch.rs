//! Speculative cluster prefetch configuration (DESIGN.md §10).
//!
//! During decode step *t* the engine nominates clusters likely to be
//! selected at step *t+1* — the pages step *t* selected plus the selector's
//! lookahead hint — and stages their pages into the session cache's bounded
//! staging buffer. Staged transfers overlap step *t*'s compute in the
//! modeled clock (`max(compute, staged) + demand` instead of a pure sum); a
//! nomination that the next step actually selects is *promoted* out of the
//! staging buffer and its demand transfer is already paid.
//!
//! Prefetch changes **when** bytes move, never **what** attends: token
//! streams, hit rates and recalled bytes are byte-identical with prefetch
//! on or off at every chunking and thread count (the prefetch parity suite
//! enforces this). With [`PrefetchConfig::disabled`] — the default — the
//! engine performs no staging, allocates nothing for nominations, and its
//! modeled clock is bit-identical to the pure-sum clock.

use clusterkv_kvcache::types::Bytes;
use serde::{Deserialize, Serialize};

/// Widening of the selection budget behind the selector's lookahead hint
/// ([`TokenSelector::prefetch_hint`](crate::policy::TokenSelector::prefetch_hint)).
pub const DEFAULT_LOOKAHEAD_TOKENS: usize = 64;

/// Speculative prefetch configuration for a [`ServeEngine`]
/// (`ServeEngineBuilder::prefetch`).
///
/// [`ServeEngine`]: crate::serve::ServeEngine
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchConfig {
    /// Byte capacity of each session cache's staging buffer. 0 disables
    /// prefetch.
    pub staging_capacity: Bytes,
    /// Budget widening of the lookahead hint: the selector re-ranks its
    /// cluster centroids against the current query under a budget this many
    /// tokens wider and nominates the clusters that would enter the plan if
    /// the budget grew — the ones a drifting query pulls in next. Policies
    /// without a hint nominate only the pages the step selected.
    pub lookahead_tokens: usize,
}

impl PrefetchConfig {
    /// Prefetch off: no staging, no nominations, pure-sum clock. The
    /// engine default.
    pub fn disabled() -> Self {
        Self {
            staging_capacity: Bytes(0),
            lookahead_tokens: 0,
        }
    }

    /// Prefetch into a staging buffer of `staging_capacity` bytes: every
    /// step nominates the pages it selected (semantic locality makes the
    /// next step's cluster set heavily overlap the current one — the
    /// paper's Fig. 7 observation) plus the selector's lookahead hint.
    pub fn lookahead(staging_capacity: Bytes) -> Self {
        Self {
            staging_capacity,
            lookahead_tokens: DEFAULT_LOOKAHEAD_TOKENS,
        }
    }

    /// Whether the engine runs any prefetch machinery at all: the staging
    /// buffer has capacity.
    pub fn enabled(&self) -> bool {
        self.staging_capacity.get() > 0
    }
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_is_inert() {
        let cfg = PrefetchConfig::disabled();
        assert!(!cfg.enabled());
        assert_eq!(cfg, PrefetchConfig::default());
        // Without staging capacity prefetch is off whatever the lookahead.
        let no_buffer = PrefetchConfig {
            staging_capacity: Bytes(0),
            ..PrefetchConfig::lookahead(Bytes(1024))
        };
        assert!(!no_buffer.enabled());
        let on = PrefetchConfig::lookahead(Bytes(4096));
        assert!(on.enabled());
        assert_eq!(on.lookahead_tokens, DEFAULT_LOOKAHEAD_TOKENS);
    }
}
