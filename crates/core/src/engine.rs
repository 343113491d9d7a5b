//! The one engine dispatch.
//!
//! The paper gives two single-period algorithms — level-wise Apriori
//! (Alg 3.1) and the max-subpattern hit set (Alg 3.2) — and this crate
//! adds a third, the vertical bitmap engine, which returns the same
//! result bit for bit. [`Engine`] names the three, parses their
//! spellings, and [`Engine::mine`] is the only place that decides which
//! one runs: every caller hands it one [`EncodedSeriesView`], whether
//! that view borrows a columnar file or an in-memory encode.

use ppm_timeseries::EncodedSeriesView;

use crate::error::Result;
use crate::result::MiningResult;
use crate::scan::MineConfig;

/// A single-period mining engine. All three return identical pattern
/// sets and counts; they differ in scan count, memory profile and speed
/// (see `MiningResult::stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Algorithm 3.2: max-subpattern hit set, two scans total.
    #[default]
    HitSet,
    /// Algorithm 3.1: level-wise Apriori, one scan per level.
    Apriori,
    /// Per-letter segment bitmaps, two scans; counting a candidate is a
    /// k-way AND + popcount, optionally sharded over threads.
    Vertical,
}

impl Engine {
    /// Every engine, in canonical order (the audit's comparison order).
    pub const ALL: [Engine; 3] = [Engine::HitSet, Engine::Apriori, Engine::Vertical];

    /// Parses an engine name. `parallel` is an alias for
    /// [`Engine::Vertical`]: the segment-sharded vertical derive is what
    /// "mine one period on several threads" means.
    pub fn parse(name: &str) -> Option<Engine> {
        match name {
            "hitset" => Some(Engine::HitSet),
            "apriori" => Some(Engine::Apriori),
            "vertical" | "parallel" => Some(Engine::Vertical),
            _ => None,
        }
    }

    /// The canonical name: `hitset`, `apriori` or `vertical`.
    pub fn name(self) -> &'static str {
        match self {
            Engine::HitSet => "hitset",
            Engine::Apriori => "apriori",
            Engine::Vertical => "vertical",
        }
    }

    /// Mines `period` of `view`. With `threads > 1` the vertical engine
    /// shards each derivation level's counting over that many threads
    /// (bit-identical to one thread); the other engines ignore `threads`.
    pub fn mine(
        self,
        view: EncodedSeriesView<'_>,
        period: usize,
        config: &MineConfig,
        threads: usize,
    ) -> Result<MiningResult> {
        match self {
            Engine::HitSet => crate::hitset::mine_view(view, period, config),
            Engine::Apriori => crate::apriori::mine_view(view, period, config),
            Engine::Vertical if threads > 1 => {
                crate::vertical::mine_vertical_view_sharded(view, period, config, threads)
            }
            Engine::Vertical => crate::vertical::mine_vertical_view(view, period, config),
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use ppm_timeseries::{EncodedSeries, FeatureId, FeatureSeries, SeriesBuilder};

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    fn noisy_series(n: usize) -> FeatureSeries {
        let mut b = SeriesBuilder::new();
        let mut x: u64 = 11;
        for t in 0..n {
            let mut inst = Vec::new();
            if t % 6 == 2 {
                inst.push(fid(0));
            }
            if t % 6 == 4 {
                inst.push(fid(1));
            }
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if (x >> 62) == 0 {
                inst.push(fid(2 + ((x >> 40) % 4) as u32));
            }
            b.push_instant(inst);
        }
        b.finish()
    }

    #[test]
    fn names_round_trip_and_parallel_is_vertical() {
        for engine in Engine::ALL {
            assert_eq!(Engine::parse(engine.name()), Some(engine));
            assert_eq!(engine.to_string(), engine.name());
        }
        assert_eq!(Engine::parse("parallel"), Some(Engine::Vertical));
        assert_eq!(Engine::parse("incremental"), None);
        assert_eq!(Engine::parse("HitSet"), None);
        assert_eq!(Engine::default(), Engine::HitSet);
    }

    #[test]
    fn every_engine_and_thread_count_agrees() {
        let s = noisy_series(1200);
        let encoded = EncodedSeries::encode(&s);
        let config = MineConfig::new(0.4).unwrap();
        let baseline = crate::hitset::mine(&s, 6, &config).unwrap();
        for engine in Engine::ALL {
            for threads in [0, 1, 2, 3, 8] {
                let r = engine.mine(encoded.view(), 6, &config, threads).unwrap();
                assert_eq!(r.frequent, baseline.frequent, "{engine} threads={threads}");
                assert_eq!(r.segment_count, baseline.segment_count);
            }
        }
    }

    #[test]
    fn sharded_vertical_honours_zero_deadline() {
        let s = noisy_series(1200);
        let encoded = EncodedSeries::encode(&s);
        let config = MineConfig::new(0.4)
            .unwrap()
            .with_deadline(std::time::Duration::ZERO);
        let err = Engine::Vertical
            .mine(encoded.view(), 6, &config, 4)
            .unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded { .. }), "got {err:?}");
    }

    #[test]
    fn sharded_vertical_rejects_invalid_period() {
        let s = noisy_series(10);
        let encoded = EncodedSeries::encode(&s);
        let config = MineConfig::default();
        for period in [0, 11] {
            let err = Engine::Vertical
                .mine(encoded.view(), period, &config, 4)
                .unwrap_err();
            assert!(matches!(err, Error::InvalidPeriod { .. }), "got {err:?}");
        }
    }
}
