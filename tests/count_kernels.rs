//! The two counting kernels the default engine runs, against references
//! that share no code with them:
//!
//! * scan 1 over a bitmap view (bit-sliced carry-save planes, flushed
//!   every 255 segments) against a per-instant count of every
//!   `(offset, feature)` pair;
//! * the hit-set derivation over the tree's weighted transpose (the
//!   default counter) against the paper's tree walk, the flat hit scan,
//!   Apriori and the vertical engine.

mod common;

use std::collections::BTreeMap;

use common::{cases, random_series};
use partial_periodic::core::hitset::derive::CountStrategy;
use partial_periodic::core::scan_frequent_letters_view;
use partial_periodic::datagen::rng::{Rng, SplitMix64};
use partial_periodic::timeseries::EncodedSeriesView;
use partial_periodic::{
    hitset, EncodedSeries, Engine, FeatureId, FeatureSeries, MineConfig, SeriesBuilder,
};

/// Row-major instant bitmaps of `n` instants over `width` features: the
/// first and the top feature of every word occur in every instant (so
/// counts reach the segment count and a flush one segment late would
/// overflow), the rest with probability 1/2 in even words and 1/4 in odd
/// ones; padding bits past `width` stay clear, as in every encode.
fn random_words(rng: &mut SplitMix64, width: usize, n: usize) -> Vec<u64> {
    let wpi = width.div_ceil(64);
    (0..n * wpi)
        .map(|i| {
            let valid = (width - (i % wpi) * 64).min(64);
            let mask = if valid == 64 {
                u64::MAX
            } else {
                (1 << valid) - 1
            };
            let always = 1 | 1 << (valid - 1);
            let random = match i % wpi % 2 {
                0 => rng.next_u64(),
                _ => rng.next_u64() & rng.next_u64(),
            };
            (random | always) & mask
        })
        .collect()
}

/// Every `(offset, feature)` count over the first `m · period` instants,
/// one instant and one set bit at a time.
fn reference_counts(
    words: &[u64],
    width: usize,
    period: usize,
    m: usize,
) -> BTreeMap<(usize, FeatureId), u64> {
    let wpi = width.div_ceil(64);
    let mut counts = vec![0u64; period * width];
    for t in 0..m * period {
        for (w, &word) in words[t * wpi..(t + 1) * wpi].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                counts[t % period * width + w * 64 + bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
        }
    }
    counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(slot, &c)| {
            let feature = FeatureId::from_raw((slot % width) as u32);
            ((slot / width, feature), c)
        })
        .collect()
}

/// Scan 1's counts on a view: at a threshold of one occurrence every
/// pair that occurs is a letter with its exact count.
fn scan1_counts(
    view: EncodedSeriesView<'_>,
    period: usize,
) -> Option<BTreeMap<(usize, FeatureId), u64>> {
    let config = MineConfig::new(1e-9).unwrap();
    let scan = scan_frequent_letters_view(view, period, &config).ok()?;
    assert_eq!(scan.min_count, 1);
    Some(
        (0..scan.alphabet.len())
            .map(|i| (scan.alphabet.letter(i), scan.letter_counts[i]))
            .collect(),
    )
}

#[test]
fn bitsliced_scan1_equals_a_per_instant_count() {
    let mut rng = SplitMix64::seed_from_u64(0x5ca1);
    for width in [1usize, 63, 64, 65, 130] {
        // Segment counts straddle the 255-segment flush and the pairing
        // of segments (odd and even counts within a flush block).
        for m in [0usize, 1, 254, 255, 256, 511, 600] {
            for period in [1usize, 2, 7, 30] {
                for tail in [0, period - 1] {
                    let n = m * period + tail;
                    let words = random_words(&mut rng, width, n);
                    let view = EncodedSeriesView::new(width, n, &words);
                    let what = format!("width {width}, period {period}, {m} segments + {tail}");
                    match scan1_counts(view, period) {
                        Some(counts) => {
                            assert_eq!(counts, reference_counts(&words, width, period, m), "{what}")
                        }
                        None => assert_eq!(m, 0, "{what}: scan rejected a valid period"),
                    }
                }
            }
        }
        // Periods of half and all of the series: two segments and one.
        for n in [599usize, 600] {
            let words = random_words(&mut rng, width, n);
            let view = EncodedSeriesView::new(width, n, &words);
            for period in [n / 2, n] {
                let counts = scan1_counts(view, period).expect("valid period");
                assert_eq!(
                    counts,
                    reference_counts(&words, width, period, n / period),
                    "width {width}, n {n}, period {period}"
                );
            }
        }
    }
}

/// A series carrying one long pattern: `letters` offsets of a
/// `period`-instant segment hold their planted feature in ~90% of the
/// segments, on top of sparse noise.
fn long_pattern_series(rng: &mut SplitMix64, period: usize, letters: usize) -> FeatureSeries {
    let segments = rng.random_range(40..120usize);
    let mut builder = SeriesBuilder::new();
    for _ in 0..segments {
        for offset in 0..period {
            let mut instant = Vec::new();
            if offset < letters && rng.random_range(0..10u32) < 9 {
                instant.push(FeatureId::from_raw(offset as u32));
            }
            if rng.random_range(0..4u32) == 0 {
                instant.push(FeatureId::from_raw(rng.random_range(0..20u32)));
            }
            builder.push_instant(instant);
        }
    }
    builder.finish()
}

/// Mines `series` with every counter and asserts equal frequent sets, and
/// equal derivation statistics among the hit-set runs.
fn assert_counters_agree(series: &FeatureSeries, period: usize, config: &MineConfig, case: &str) {
    let encoded = EncodedSeries::encode(series);
    let view = encoded.view();
    let default = Engine::HitSet.mine(view, period, config, 1).unwrap();
    for strategy in [CountStrategy::TreeWalk, CountStrategy::LinearScan] {
        let other = hitset::mine_with_strategy(view, period, config, strategy).unwrap();
        assert_eq!(default.frequent, other.frequent, "{case}: {strategy:?}");
        let (a, b) = (&default.stats, &other.stats);
        assert_eq!(
            a.candidates_generated, b.candidates_generated,
            "{case}: {strategy:?}"
        );
        assert_eq!(a.subset_tests, b.subset_tests, "{case}: {strategy:?}");
        assert_eq!(a.tree_nodes, b.tree_nodes, "{case}: {strategy:?}");
    }
    for engine in [Engine::Apriori, Engine::Vertical] {
        let other = engine.mine(view, period, config, 1).unwrap();
        assert_eq!(default.frequent, other.frequent, "{case}: {engine}");
    }
}

#[test]
fn every_derivation_counter_mines_identically() {
    for (case, mut rng) in cases("derivation_counters_sparse", 48) {
        let series = random_series(&mut rng, 8, 4, 60..400);
        let period = rng.random_range(2..9usize);
        let config = MineConfig::new(common::pick(&mut rng, &[0.1, 0.2, 0.35])).unwrap();
        assert_counters_agree(&series, period, &config, &format!("sparse case {case}"));
    }
    for (case, mut rng) in cases("derivation_counters_long", 16) {
        let period = rng.random_range(8..16usize);
        let letters = rng.random_range(5..=period.min(10));
        let series = long_pattern_series(&mut rng, period, letters);
        let config = MineConfig::new(0.6).unwrap();
        assert_counters_agree(&series, period, &config, &format!("long case {case}"));
    }
}

/// The default derivation is the transposed counter, and its gauges carry
/// the hit-set layer's name: a default mine reports `hitset.transpose_bytes`,
/// `hitset.and_ops` and `hitset.kernel` (the kernel the mine's config
/// selects) and no `vertical.*` gauge, while a tree-walk mine reports none
/// of them.
#[test]
fn the_default_derivation_reports_its_transpose_under_hitset_names() {
    use std::sync::Arc;

    use partial_periodic::observe::{self, Collector};
    use partial_periodic::vertical::Kernel;

    let mut rng = SplitMix64::seed_from_u64(9);
    let series = long_pattern_series(&mut rng, 10, 6);
    let encoded = EncodedSeries::encode(&series);
    let gauges_of = |kernel: Kernel, strategy: Option<CountStrategy>| {
        let config = MineConfig::new(0.6).unwrap().with_kernel(kernel);
        let collector = Arc::new(Collector::new());
        let _guard = observe::install(collector.clone());
        match strategy {
            None => Engine::HitSet.mine(encoded.view(), 10, &config, 1),
            Some(s) => hitset::mine_with_strategy(encoded.view(), 10, &config, s),
        }
        .unwrap();
        collector.gauge_maxima()
    };
    for (kernel, code) in [(Kernel::Scalar, 0), (Kernel::Wide, 1)] {
        let default = gauges_of(kernel, None);
        for name in ["hitset.transpose_bytes", "hitset.and_ops"] {
            assert!(default.contains_key(name), "{name} missing: {default:?}");
        }
        assert!(default["hitset.and_ops"] > 0, "{default:?}");
        assert_eq!(default.get("hitset.kernel"), Some(&code), "{default:?}");
        assert!(
            !default.keys().any(|k| k.starts_with("vertical.")),
            "{default:?}"
        );
    }
    let walk = gauges_of(Kernel::Auto, Some(CountStrategy::TreeWalk));
    assert!(!walk.contains_key("hitset.and_ops"), "{walk:?}");
}
