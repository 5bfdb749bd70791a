//! Configuration for the mining pipeline.

use crate::error::MaimonError;
use entropy::EntropyConfig;

/// Count limits applied while mining, so unit tests and benchmarks stay fast
/// and deterministic. The paper's wall-clock limits (5 hours for full-MVD
/// mining in Table 2, 30 minutes per threshold in §8.4 and §14.1) are
/// deadlines on a [`crate::RunControl`] or [`crate::MaimonSession`], not
/// limits.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`MiningLimits::builder`] (or start from [`MiningLimits::default`] /
/// [`MiningLimits::small`] via [`MiningLimits::to_builder`]) so future limit
/// fields are not semver breaks.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub struct MiningLimits {
    /// Maximum number of full MVDs returned per minimal separator (the
    /// parameter `K` of `getFullMVDs`); `None` means unlimited.
    pub max_full_mvds_per_separator: Option<usize>,
    /// Maximum number of minimal separators mined per attribute pair.
    pub max_separators_per_pair: Option<usize>,
    /// Cap on lattice nodes explored by a single `getFullMVDs` invocation
    /// (a defense against the worst-case Stirling-number blowup of §6.2.1).
    pub max_lattice_nodes: Option<usize>,
}

impl Default for MiningLimits {
    fn default() -> Self {
        MiningLimits {
            max_full_mvds_per_separator: None,
            max_separators_per_pair: None,
            max_lattice_nodes: Some(200_000),
        }
    }
}

impl MiningLimits {
    /// Limits suitable for unit tests: small caps everywhere.
    pub fn small() -> Self {
        MiningLimits {
            max_full_mvds_per_separator: Some(64),
            max_separators_per_pair: Some(64),
            max_lattice_nodes: Some(20_000),
        }
    }

    /// Starts a fluent builder from the default limits.
    ///
    /// ```
    /// use maimon::MiningLimits;
    ///
    /// let limits = MiningLimits::builder()
    ///     .max_separators_per_pair(Some(16))
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(limits.max_separators_per_pair, Some(16));
    /// ```
    pub fn builder() -> MiningLimitsBuilder {
        MiningLimitsBuilder { inner: MiningLimits::default() }
    }

    /// Starts a builder seeded with these limits (e.g. to tweak one field of
    /// [`MiningLimits::small`]).
    pub fn to_builder(self) -> MiningLimitsBuilder {
        MiningLimitsBuilder { inner: self }
    }

    /// Validates the limits: count limits must be at least 1 when present.
    ///
    /// # Errors
    /// Returns [`MaimonError::InvalidConfig`] on a zero count limit.
    pub fn validate(&self) -> Result<(), MaimonError> {
        if self.max_full_mvds_per_separator == Some(0)
            || self.max_separators_per_pair == Some(0)
            || self.max_lattice_nodes == Some(0)
        {
            return Err(MaimonError::InvalidConfig(
                "count limits must be at least 1 when present".into(),
            ));
        }
        Ok(())
    }
}

/// Fluent builder for [`MiningLimits`]; validation happens at
/// [`MiningLimitsBuilder::build`].
#[derive(Clone, Copy, Debug)]
#[must_use = "builders do nothing until .build() is called"]
pub struct MiningLimitsBuilder {
    inner: MiningLimits,
}

impl MiningLimitsBuilder {
    /// Caps the full MVDs returned per minimal separator (`None` = unlimited).
    pub fn max_full_mvds_per_separator(mut self, value: Option<usize>) -> Self {
        self.inner.max_full_mvds_per_separator = value;
        self
    }

    /// Caps the minimal separators mined per attribute pair.
    pub fn max_separators_per_pair(mut self, value: Option<usize>) -> Self {
        self.inner.max_separators_per_pair = value;
        self
    }

    /// Caps the lattice nodes explored per `getFullMVDs` invocation.
    pub fn max_lattice_nodes(mut self, value: Option<usize>) -> Self {
        self.inner.max_lattice_nodes = value;
        self
    }

    /// Validates and produces the limits.
    ///
    /// # Errors
    /// Returns [`MaimonError::InvalidConfig`] on a zero count limit.
    pub fn build(self) -> Result<MiningLimits, MaimonError> {
        self.inner.validate()?;
        Ok(self.inner)
    }
}

/// Top-level configuration of a Maimon run.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`MaimonConfig::builder`] (or one of the `with_*` convenience
/// constructors) so future knobs are not semver breaks. Fields stay public
/// for reading and in-place mutation.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub struct MaimonConfig {
    /// Approximation threshold ε: MVDs and schemas with `J ≤ ε` are accepted.
    pub epsilon: f64,
    /// Configuration of the PLI entropy engine (§6.3).
    pub entropy: EntropyConfig,
    /// Use the pairwise-consistency pruning of appendix §12.3
    /// (`getFullMVDsOpt`) instead of the plain `getFullMVDs` of Fig. 6.
    pub use_pairwise_consistency_optimization: bool,
    /// Verify that every reported MVD is *full* (no strict refinement also
    /// ε-holds) with an exhaustive post-check. Exponential in the dependent
    /// sizes; intended for tests and small relations.
    pub verify_fullness: bool,
    /// Resource limits for the MVD-mining phase.
    pub limits: MiningLimits,
    /// Maximum number of acyclic schemas enumerated by `ASMiner`.
    pub max_schemas: Option<usize>,
    /// Worker threads for the MVD-mining fan-out over attribute pairs.
    ///
    /// `Some(1)` forces the sequential path (the pre-parallel behavior);
    /// `Some(t)` uses exactly `t` workers; `None` (the default) resolves at
    /// run time to the `MAIMON_THREADS` environment variable if set, and the
    /// machine's available parallelism otherwise. Whatever the count, the
    /// mined `M_ε`, separator map and mining statistics are identical to the
    /// sequential run's (see `tests/parallel_equivalence.rs`); only
    /// wall-clock time and the oracle's `intersections` counter may differ.
    pub threads: Option<usize>,
}

impl Default for MaimonConfig {
    fn default() -> Self {
        MaimonConfig {
            epsilon: 0.0,
            entropy: EntropyConfig::default(),
            use_pairwise_consistency_optimization: true,
            verify_fullness: false,
            limits: MiningLimits::default(),
            max_schemas: Some(10_000),
            threads: None,
        }
    }
}

impl MaimonConfig {
    /// Convenience constructor: default configuration with the given ε.
    pub fn with_epsilon(epsilon: f64) -> Self {
        MaimonConfig { epsilon, ..MaimonConfig::default() }
    }

    /// Convenience constructor: the given ε and a fixed worker count.
    pub fn with_epsilon_and_threads(epsilon: f64, threads: usize) -> Self {
        MaimonConfig { epsilon, threads: Some(threads), ..MaimonConfig::default() }
    }

    /// Starts a fluent builder from the default configuration. Validation
    /// (finite non-negative ε, no zero limits, no zero thread count) happens
    /// at [`MaimonConfigBuilder::build`].
    ///
    /// ```
    /// use maimon::MaimonConfig;
    ///
    /// let config = MaimonConfig::builder()
    ///     .epsilon(0.1)
    ///     .max_schemas(Some(500))
    ///     .threads(Some(1))
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(config.epsilon, 0.1);
    /// assert!(MaimonConfig::builder().epsilon(-1.0).build().is_err());
    /// ```
    pub fn builder() -> MaimonConfigBuilder {
        MaimonConfigBuilder { inner: MaimonConfig::default() }
    }

    /// Starts a builder seeded with this configuration.
    pub fn to_builder(self) -> MaimonConfigBuilder {
        MaimonConfigBuilder { inner: self }
    }

    /// Resolves [`Self::threads`] to a concrete worker count (≥ 1): an
    /// explicit setting wins, then the `MAIMON_THREADS` environment variable,
    /// then [`std::thread::available_parallelism`].
    pub fn effective_threads(&self) -> usize {
        if let Some(threads) = self.threads {
            return threads.max(1);
        }
        if let Some(threads) =
            std::env::var("MAIMON_THREADS").ok().and_then(|v| v.trim().parse::<usize>().ok())
        {
            if threads >= 1 {
                return threads;
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns an error if ε is negative, NaN or infinite, or a limit is zero.
    pub fn validate(&self) -> Result<(), MaimonError> {
        if !self.epsilon.is_finite() || self.epsilon < 0.0 {
            return Err(MaimonError::InvalidEpsilon(self.epsilon));
        }
        if self.limits.max_full_mvds_per_separator == Some(0)
            || self.limits.max_separators_per_pair == Some(0)
            || self.limits.max_lattice_nodes == Some(0)
            || self.max_schemas == Some(0)
        {
            return Err(MaimonError::InvalidConfig(
                "count limits must be at least 1 when present".into(),
            ));
        }
        if self.threads == Some(0) {
            return Err(MaimonError::InvalidConfig(
                "thread count must be at least 1 when present".into(),
            ));
        }
        Ok(())
    }
}

/// Fluent builder for [`MaimonConfig`]; validation happens at
/// [`MaimonConfigBuilder::build`].
#[derive(Clone, Copy, Debug)]
#[must_use = "builders do nothing until .build() is called"]
pub struct MaimonConfigBuilder {
    inner: MaimonConfig,
}

impl MaimonConfigBuilder {
    /// Sets the approximation threshold ε.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.inner.epsilon = epsilon;
        self
    }

    /// Sets the PLI entropy-engine configuration.
    pub fn entropy(mut self, entropy: EntropyConfig) -> Self {
        self.inner.entropy = entropy;
        self
    }

    /// Toggles the pairwise-consistency pruning of appendix §12.3.
    pub fn pairwise_consistency_optimization(mut self, enabled: bool) -> Self {
        self.inner.use_pairwise_consistency_optimization = enabled;
        self
    }

    /// Toggles the exhaustive fullness post-check.
    pub fn verify_fullness(mut self, enabled: bool) -> Self {
        self.inner.verify_fullness = enabled;
        self
    }

    /// Sets the mining resource limits.
    pub fn limits(mut self, limits: MiningLimits) -> Self {
        self.inner.limits = limits;
        self
    }

    /// Caps the number of schemas enumerated by `ASMiner`.
    pub fn max_schemas(mut self, max_schemas: Option<usize>) -> Self {
        self.inner.max_schemas = max_schemas;
        self
    }

    /// Sets the worker-thread knob (see [`MaimonConfig::threads`]).
    pub fn threads(mut self, threads: Option<usize>) -> Self {
        self.inner.threads = threads;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    /// Returns [`MaimonError::InvalidEpsilon`] for a negative or non-finite ε
    /// and [`MaimonError::InvalidConfig`] for zero count limits or a zero
    /// thread count.
    pub fn build(self) -> Result<MaimonConfig, MaimonError> {
        self.inner.validate()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(MaimonConfig::default().validate().is_ok());
        assert!(MaimonConfig::with_epsilon(0.25).validate().is_ok());
        assert_eq!(MaimonConfig::with_epsilon(0.25).epsilon, 0.25);
    }

    #[test]
    fn invalid_epsilon_rejected() {
        assert!(MaimonConfig::with_epsilon(-0.1).validate().is_err());
        assert!(MaimonConfig::with_epsilon(f64::NAN).validate().is_err());
        assert!(MaimonConfig::with_epsilon(f64::INFINITY).validate().is_err());
    }

    #[test]
    fn zero_limits_rejected() {
        let config = MaimonConfig { max_schemas: Some(0), ..MaimonConfig::default() };
        assert!(config.validate().is_err());
        let mut config = MaimonConfig::default();
        config.limits.max_lattice_nodes = Some(0);
        assert!(config.validate().is_err());
    }

    #[test]
    fn zero_threads_rejected_and_explicit_threads_resolve() {
        let config = MaimonConfig { threads: Some(0), ..MaimonConfig::default() };
        assert!(config.validate().is_err());
        let config = MaimonConfig::with_epsilon_and_threads(0.1, 4);
        assert!(config.validate().is_ok());
        assert_eq!(config.effective_threads(), 4);
        // The auto setting always resolves to at least one worker.
        assert!(MaimonConfig::default().effective_threads() >= 1);
    }

    #[test]
    fn builders_validate_at_build() {
        let config = MaimonConfig::builder()
            .epsilon(0.25)
            .verify_fullness(true)
            .max_schemas(Some(7))
            .threads(Some(2))
            .build()
            .unwrap();
        assert_eq!(config.epsilon, 0.25);
        assert!(config.verify_fullness);
        assert_eq!(config.max_schemas, Some(7));
        assert_eq!(config.threads, Some(2));
        // Rejections: negative ε, zero threads, zero count limits.
        assert!(MaimonConfig::builder().epsilon(-0.5).build().is_err());
        assert!(MaimonConfig::builder().threads(Some(0)).build().is_err());
        assert!(MaimonConfig::builder().max_schemas(Some(0)).build().is_err());
        assert!(MiningLimits::builder().max_lattice_nodes(Some(0)).build().is_err());
        // Seeded builders start from the given value.
        let limits = MiningLimits::small().to_builder().max_lattice_nodes(None).build().unwrap();
        assert_eq!(limits.max_lattice_nodes, None);
        assert_eq!(limits.max_separators_per_pair, MiningLimits::small().max_separators_per_pair);
        let tweaked = config.to_builder().epsilon(0.5).build().unwrap();
        assert_eq!(tweaked.epsilon, 0.5);
        assert_eq!(tweaked.max_schemas, Some(7));
    }

    #[test]
    fn config_builder_rejects_zero_limits_inside_limits() {
        let zero = MiningLimits { max_full_mvds_per_separator: Some(0), ..MiningLimits::default() };
        assert!(MaimonConfig::builder().limits(zero).build().is_err());
        assert!(zero.validate().is_err());
        assert!(MiningLimits::default().validate().is_ok());
    }

    #[test]
    fn small_limits_are_all_bounded() {
        let limits = MiningLimits::small();
        assert!(limits.max_full_mvds_per_separator.is_some());
        assert!(limits.max_separators_per_pair.is_some());
        assert!(limits.max_lattice_nodes.is_some());
    }
}
