//! Error type for the mining layer.

use std::fmt;
use std::time::Duration;

use crate::stats::MiningStats;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by mining configuration and execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The confidence threshold must lie in `(0, 1]`.
    InvalidConfidence {
        /// The offending value.
        value: f64,
    },
    /// A period of zero, or longer than the series, was requested.
    InvalidPeriod {
        /// The offending period.
        period: usize,
        /// Length of the series it was applied to.
        series_len: usize,
    },
    /// An empty or inverted period range was requested.
    InvalidPeriodRange {
        /// Lower bound.
        lo: usize,
        /// Upper bound.
        hi: usize,
    },
    /// A pattern string could not be parsed.
    PatternParse {
        /// Human-readable description of the problem.
        detail: String,
    },
    /// A pattern's period disagrees with the mining period.
    PeriodMismatch {
        /// The pattern's period.
        pattern_period: usize,
        /// The expected period.
        expected: usize,
    },
    /// An error bubbled up from the time-series substrate.
    Series(ppm_timeseries::Error),
    /// The wall-clock deadline ([`crate::MineConfig::with_deadline`]) passed
    /// before mining finished. Carries the statistics accumulated up to the
    /// abort point, so callers can report how far the run got.
    DeadlineExceeded {
        /// Wall-clock time elapsed when the run aborted.
        elapsed: Duration,
        /// Statistics accumulated before the abort.
        stats: Box<MiningStats>,
    },
    /// The max-subpattern tree outgrew the configured node budget
    /// ([`crate::MineConfig::with_max_tree_nodes`]). Carries the statistics
    /// accumulated up to the abort point.
    TreeBudgetExceeded {
        /// Node count observed when the check fired.
        nodes: usize,
        /// The configured budget it exceeded.
        budget: usize,
        /// Statistics accumulated before the abort.
        stats: Box<MiningStats>,
    },
    /// A worker thread panicked during a scheduled sweep. The panic does not
    /// propagate; it is isolated and surfaced as this error.
    WorkerPanic {
        /// The panic payload, when it was a string; a placeholder otherwise.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfidence { value } => {
                write!(f, "min confidence must be in (0, 1], got {value}")
            }
            Error::InvalidPeriod { period, series_len } => write!(
                f,
                "invalid period {period} for series of length {series_len}"
            ),
            Error::InvalidPeriodRange { lo, hi } => {
                write!(f, "invalid period range {lo}..={hi}")
            }
            Error::PatternParse { detail } => write!(f, "pattern parse error: {detail}"),
            Error::PeriodMismatch {
                pattern_period,
                expected,
            } => write!(
                f,
                "pattern has period {pattern_period}, expected {expected}"
            ),
            Error::Series(e) => write!(f, "series error: {e}"),
            Error::DeadlineExceeded { elapsed, .. } => {
                write!(f, "mining deadline exceeded after {elapsed:.2?}")
            }
            Error::TreeBudgetExceeded { nodes, budget, .. } => write!(
                f,
                "max-subpattern tree grew to {nodes} nodes, over the budget of {budget}"
            ),
            Error::WorkerPanic { detail } => {
                write!(f, "mining worker thread panicked: {detail}")
            }
        }
    }
}

impl Error {
    /// The partial [`MiningStats`] carried by resource-guard errors
    /// ([`Error::DeadlineExceeded`], [`Error::TreeBudgetExceeded`]), if any.
    /// Lets callers report progress made before an aborted run.
    pub fn partial_stats(&self) -> Option<&MiningStats> {
        match self {
            Error::DeadlineExceeded { stats, .. } | Error::TreeBudgetExceeded { stats, .. } => {
                Some(stats)
            }
            _ => None,
        }
    }

    /// Whether this error wraps a transient substrate failure (see
    /// [`ppm_timeseries::Error::is_transient`]) — worth retrying. Mining
    /// errors proper (bad config, guard violations, corruption) are not.
    pub fn is_transient(&self) -> bool {
        matches!(self, Error::Series(e) if e.is_transient())
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Series(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ppm_timeseries::Error> for Error {
    fn from(e: ppm_timeseries::Error) -> Self {
        // Surface period problems under our own variant so callers can match
        // on a single error shape regardless of which layer noticed first.
        match e {
            ppm_timeseries::Error::InvalidPeriod { period, series_len } => {
                Error::InvalidPeriod { period, series_len }
            }
            other => Error::Series(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(Error::InvalidConfidence { value: 1.5 }
            .to_string()
            .contains("1.5"));
        assert!(Error::InvalidPeriodRange { lo: 5, hi: 2 }
            .to_string()
            .contains("5..=2"));
        assert!(Error::PeriodMismatch {
            pattern_period: 3,
            expected: 4
        }
        .to_string()
        .contains("period 3"));
    }

    #[test]
    fn guard_errors_carry_partial_stats() {
        let stats = MiningStats {
            hit_insertions: 42,
            ..Default::default()
        };
        let e = Error::TreeBudgetExceeded {
            nodes: 10,
            budget: 5,
            stats: Box::new(stats.clone()),
        };
        assert_eq!(e.partial_stats().unwrap().hit_insertions, 42);
        assert!(e.to_string().contains("budget of 5"));
        let e = Error::DeadlineExceeded {
            elapsed: Duration::from_millis(7),
            stats: Box::new(stats),
        };
        assert!(e.partial_stats().is_some());
        assert!(e.to_string().contains("deadline exceeded"));
        assert!(Error::InvalidConfidence { value: 0.0 }
            .partial_stats()
            .is_none());
        assert!(Error::WorkerPanic {
            detail: "boom".into()
        }
        .to_string()
        .contains("boom"));
    }

    #[test]
    fn series_period_errors_are_remapped() {
        let e: Error = ppm_timeseries::Error::InvalidPeriod {
            period: 0,
            series_len: 9,
        }
        .into();
        assert!(matches!(
            e,
            Error::InvalidPeriod {
                period: 0,
                series_len: 9
            }
        ));
    }
}
