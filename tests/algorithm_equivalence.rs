//! Cross-algorithm equivalence: Apriori (Alg 3.1), the max-subpattern
//! hit-set method (Alg 3.2), multi-period looping (Alg 3.3) and shared
//! mining (Alg 3.4) must all report exactly the same frequent patterns with
//! exactly the same counts — and those counts must agree with brute-force
//! segment matching and brute-force subset enumeration.

mod common;

use std::collections::HashMap;

use common::{cases, pick, random_series};
use partial_periodic::core::hitset::derive::CountStrategy;
use partial_periodic::core::LetterSet;
use partial_periodic::datagen::rng::{Rng, SplitMix64};
use partial_periodic::multi::{mine_periods_looping, mine_periods_shared, PeriodRange};
use partial_periodic::{
    apriori, hitset, EncodedSeries, Engine, FeatureCatalog, FeatureSeries, MineConfig,
    SeriesBuilder,
};

/// Instants of 0..=3 features drawn from a 5-feature vocabulary.
fn series(rng: &mut SplitMix64) -> FeatureSeries {
    random_series(rng, 5, 4, 16..90)
}

#[test]
fn apriori_equals_hitset() {
    for (case, mut rng) in cases("apriori_equals_hitset", 64) {
        let series = series(&mut rng);
        let period = rng.random_range(2..8usize);
        let conf_pct = pick(&mut rng, &[25u32, 40, 60, 80, 100]);
        let config = MineConfig::new(conf_pct as f64 / 100.0).unwrap();
        let a = apriori::mine(&series, period, &config).unwrap();
        let h = hitset::mine(&series, period, &config).unwrap();
        assert_eq!(a.frequent, h.frequent, "case {case}");
        assert_eq!(a.segment_count, h.segment_count, "case {case}");
        assert_eq!(a.min_count, h.min_count, "case {case}");
        // The hit-set method always takes exactly 2 scans.
        assert_eq!(h.stats.series_scans, 2, "case {case}");
    }
}

#[test]
fn both_counting_strategies_agree() {
    for (case, mut rng) in cases("counting_strategies", 64) {
        let series = series(&mut rng);
        let period = rng.random_range(2..7usize);
        let config = MineConfig::new(0.3).unwrap();
        let encoded = EncodedSeries::encode(&series);
        let mine = |strategy| {
            hitset::mine_with_strategy(encoded.view(), period, &config, strategy).unwrap()
        };
        let walk = mine(CountStrategy::TreeWalk);
        let linear = mine(CountStrategy::LinearScan);
        assert_eq!(walk.frequent, linear.frequent, "case {case}");
    }
}

#[test]
fn counts_match_brute_force_matching() {
    for (case, mut rng) in cases("brute_force_counts", 64) {
        let series = series(&mut rng);
        let period = rng.random_range(2..6usize);
        let config = MineConfig::new(0.4).unwrap();
        let result = hitset::mine(&series, period, &config).unwrap();
        let segments = series.segments(period).unwrap();
        for (pattern, count, _) in result.patterns() {
            let brute = segments
                .iter()
                .filter(|s| pattern.matches_segment(s))
                .count() as u64;
            assert_eq!(count, brute, "case {case}");
        }
    }
}

/// Enumerates *every* subset of the frequent-letter alphabet (small for
/// these inputs) and checks that exactly the threshold-meeting subsets
/// are reported.
#[test]
fn result_is_complete_over_the_alphabet() {
    for (case, mut rng) in cases("complete_over_alphabet", 64) {
        let series = series(&mut rng);
        let period = rng.random_range(2..5usize);
        let config = MineConfig::new(0.5).unwrap();
        let result = hitset::mine(&series, period, &config).unwrap();
        let n = result.alphabet.len();
        if n > 12 {
            continue;
        }
        let segments = series.segments(period).unwrap();
        let reported: HashMap<Vec<usize>, u64> = result
            .frequent
            .iter()
            .map(|fp| (fp.letters.iter().collect(), fp.count))
            .collect();

        for mask in 1u32..(1u32 << n) {
            let letters: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
            let set = LetterSet::from_indices(n, letters.iter().copied());
            let pattern = partial_periodic::Pattern::from_letter_set(&result.alphabet, &set);
            let brute = segments
                .iter()
                .filter(|s| pattern.matches_segment(s))
                .count() as u64;
            let frequent = brute >= result.min_count;
            match reported.get(&letters) {
                Some(&count) => {
                    assert!(
                        frequent,
                        "case {case}: infrequent pattern reported: {letters:?}"
                    );
                    assert_eq!(count, brute, "case {case}");
                }
                None => assert!(
                    !frequent,
                    "case {case}: missing frequent pattern {letters:?} (count {brute} >= {})",
                    result.min_count
                ),
            }
        }
    }
}

/// Shared mining (Alg 3.4) equals looping (Alg 3.3) with every engine.
#[test]
fn shared_equals_looping() {
    for (case, mut rng) in cases("shared_equals_looping", 64) {
        let series = series(&mut rng);
        let lo = rng.random_range(2..5usize);
        let hi = lo + rng.random_range(0..4usize);
        let range = PeriodRange::new(lo, hi).unwrap();
        let config = MineConfig::new(0.5).unwrap();
        let shared = mine_periods_shared(&series, range, &config).unwrap();
        assert_eq!(shared.total_scans, 2, "case {case}");
        let encoded = EncodedSeries::encode(&series);
        for engine in Engine::ALL {
            let looped = mine_periods_looping(encoded.view(), range, &config, engine).unwrap();
            assert_eq!(shared.results.len(), looped.results.len(), "case {case}");
            for (s, l) in shared.results.iter().zip(&looped.results) {
                assert_eq!(s.period, l.period, "case {case}");
                assert_eq!(s.frequent, l.frequent, "case {case} {engine}");
            }
        }
    }
}

#[test]
fn algorithms_agree_on_the_paper_example() {
    let mut cat = FeatureCatalog::new();
    let a = cat.intern("a");
    let b = cat.intern("b");
    let c = cat.intern("c");
    let e = cat.intern("e");
    let d = cat.intern("d");
    let mut builder = SeriesBuilder::new();
    for inst in [
        vec![a],
        vec![b, c],
        vec![b],
        vec![a],
        vec![e],
        vec![b],
        vec![a],
        vec![c],
        vec![e],
        vec![d],
    ] {
        builder.push_instant(inst);
    }
    let series = builder.finish();
    let config = MineConfig::new(0.6).unwrap();
    let ap = apriori::mine(&series, 3, &config).unwrap();
    let hs = hitset::mine(&series, 3, &config).unwrap();
    assert_eq!(ap.frequent, hs.frequent);
    assert_eq!(hs.len(), 5); // a**, *c*, **b, a*b, ac*
}
