//! Property tests on the core data structures: `LetterSet` against a
//! `BTreeSet` model, the max-subpattern tree against a naive multiset, the
//! threshold arithmetic, the substrate's discretizers and block codec, the
//! counting kernels and shards, and the auditor.
//! Cases come from the seeded generator in `common`.

mod common;

use std::collections::BTreeSet;

use common::{build_series, cases, float_in, instants, set_of};
use partial_periodic::core::hitset::MaxSubpatternTree;
use partial_periodic::core::{LetterSet, MineConfig};
use partial_periodic::datagen::rng::{Rng, SplitMix64};
use partial_periodic::timeseries::discretize::Discretizer;
use partial_periodic::FeatureCatalog;

fn catalog_of(n: usize) -> FeatureCatalog {
    let mut catalog = FeatureCatalog::new();
    for i in 0..n {
        catalog.intern(&format!("f{i}"));
    }
    catalog
}

/// Hits of at least two letters below `universe`, at least one of them.
fn tree_hits(rng: &mut SplitMix64, universe: usize) -> Vec<BTreeSet<usize>> {
    loop {
        let n = rng.random_range(1..40usize);
        let hits: Vec<BTreeSet<usize>> = (0..n)
            .map(|_| set_of(rng, 0..9, 2..6))
            .map(|h| h.into_iter().filter(|&i| i < universe).collect())
            .filter(|h: &BTreeSet<usize>| h.len() >= 2)
            .collect();
        if !hits.is_empty() {
            return hits;
        }
    }
}

// ---------------------------------------------------------------- LetterSet

#[test]
fn letterset_matches_btreeset_model() {
    for (case, mut rng) in cases("letterset_model", 128) {
        let universe = rng.random_range(1..200);
        let mut set = LetterSet::new(universe);
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for _ in 0..rng.random_range(0..60usize) {
            let i = rng.random_range(0..199);
            match rng.random_range(0..3usize) {
                0 if i < universe => {
                    set.insert(i);
                    model.insert(i);
                }
                0 => {}
                1 => {
                    set.remove(i);
                    model.remove(&i);
                }
                _ => {
                    set.clear();
                    model.clear();
                }
            }
            assert_eq!(set.len(), model.len(), "case {case}");
            assert_eq!(
                set.iter().collect::<Vec<_>>(),
                model.iter().copied().collect::<Vec<_>>(),
                "case {case}"
            );
            assert_eq!(set.is_empty(), model.is_empty(), "case {case}");
            assert_eq!(set.first(), model.first().copied(), "case {case}");
        }
    }
}

#[test]
fn letterset_algebra_matches_model() {
    for (case, mut rng) in cases("letterset_algebra", 128) {
        let universe = rng.random_range(1..150);
        let a_items: BTreeSet<usize> = set_of(&mut rng, 0..149, 0..30)
            .into_iter()
            .filter(|&i| i < universe)
            .collect();
        let b_items: BTreeSet<usize> = set_of(&mut rng, 0..149, 0..30)
            .into_iter()
            .filter(|&i| i < universe)
            .collect();
        let a = LetterSet::from_indices(universe, a_items.iter().copied());
        let b = LetterSet::from_indices(universe, b_items.iter().copied());

        assert_eq!(a.is_subset(&b), a_items.is_subset(&b_items), "case {case}");
        assert_eq!(
            a.is_superset(&b),
            a_items.is_superset(&b_items),
            "case {case}"
        );
        assert_eq!(
            a.is_disjoint(&b),
            a_items.is_disjoint(&b_items),
            "case {case}"
        );

        let mut union = a.clone();
        union.union_with(&b);
        assert_eq!(
            union.iter().collect::<Vec<_>>(),
            a_items.union(&b_items).copied().collect::<Vec<_>>(),
            "case {case}"
        );
        let mut inter = a.clone();
        inter.intersect_with(&b);
        assert_eq!(
            inter.iter().collect::<Vec<_>>(),
            a_items.intersection(&b_items).copied().collect::<Vec<_>>(),
            "case {case}"
        );
        assert_eq!(
            a.difference(&b).iter().collect::<Vec<_>>(),
            a_items.difference(&b_items).copied().collect::<Vec<_>>(),
            "case {case}"
        );
    }
}

// ------------------------------------------------------ max-subpattern tree

#[test]
fn tree_counting_matches_naive_multiset() {
    for (case, mut rng) in cases("tree_counting", 128) {
        let universe = rng.random_range(2..10);
        let hits = tree_hits(&mut rng, universe);
        let candidate: BTreeSet<usize> = set_of(&mut rng, 0..9, 0..5)
            .into_iter()
            .filter(|&i| i < universe)
            .collect();

        let mut tree = MaxSubpatternTree::new(LetterSet::full(universe));
        for h in &hits {
            tree.insert(&LetterSet::from_indices(universe, h.iter().copied()));
        }
        let cand = LetterSet::from_indices(universe, candidate.iter().copied());
        let naive = hits.iter().filter(|h| candidate.is_subset(h)).count() as u64;
        assert_eq!(tree.count_superpatterns_walk(&cand), naive, "case {case}");
        assert_eq!(tree.count_superpatterns_linear(&cand), naive, "case {case}");
        // Structural invariants.
        assert_eq!(tree.total_hits(), hits.len() as u64, "case {case}");
        assert!(tree.distinct_hits() <= hits.len(), "case {case}");
        assert!(tree.distinct_hits() <= tree.node_count(), "case {case}");
    }
}

// ------------------------------------------------------ threshold arithmetic

#[test]
fn min_count_is_least_count_meeting_confidence() {
    for (case, mut rng) in cases("min_count", 256) {
        let m = rng.random_range(1..500);
        let conf = rng.random_range(1..=1000u32) as f64 / 1000.0;
        let c = MineConfig::new(conf).unwrap().min_count(m);
        // c meets the threshold…
        assert!(c as f64 / m as f64 >= conf - 1e-9, "case {case}");
        // …and c−1 does not (when c > 1; counts below 1 are meaningless).
        if c > 1 {
            assert!(((c - 1) as f64) / (m as f64) < conf - 1e-12, "case {case}");
        }
        assert!(c <= m as u64, "case {case}");
    }
}

// ----------------------------------------------------------- discretization

#[test]
fn discretizers_are_total_and_order_preserving() {
    for (case, mut rng) in cases("discretizers", 128) {
        let n = rng.random_range(2..60usize);
        let values: Vec<f64> = (0..n)
            .map(|_| float_in(&mut rng, -1000.0, 1000.0))
            .collect();
        let bins = rng.random_range(1..12);
        for d in [
            Discretizer::equal_width("x", &values, bins).unwrap(),
            Discretizer::equal_depth("x", &values, bins).unwrap(),
        ] {
            let mut pairs: Vec<(f64, usize)> = values.iter().map(|&v| (v, d.bin_of(v))).collect();
            for &(v, b) in &pairs {
                assert!(b < bins, "case {case}: {v} -> bin {b}");
            }
            // Bin assignment is monotone in the value.
            pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in pairs.windows(2) {
                assert!(w[0].1 <= w[1].1, "case {case}: bins not monotone: {w:?}");
            }
        }
    }
}

#[test]
fn equal_width_bins_have_equal_span() {
    for (case, mut rng) in cases("equal_width", 128) {
        let lo = float_in(&mut rng, -100.0, 100.0);
        let span = float_in(&mut rng, 1.0, 200.0);
        let bins = rng.random_range(2..10);
        let d = Discretizer::equal_width("x", &[lo, lo + span], bins).unwrap();
        let edges = d.edges();
        let width = (edges[1] - edges[0]).abs();
        for w in edges.windows(2) {
            assert!(
                ((w[1] - w[0]) - width).abs() < 1e-6 * span,
                "case {case}: {edges:?}"
            );
        }
    }
}

// ------------------------------------------------------------ storage codec

#[test]
fn block_format_round_trips_arbitrary_series() {
    use partial_periodic::timeseries::storage::binary;

    for (case, mut rng) in cases("block_format", 128) {
        let mut catalog = FeatureCatalog::new();
        for _ in 0..rng.random_range(0..20usize) {
            let len = rng.random_range(1..=12usize);
            let name: String = (0..len)
                .map(|_| char::from(b'a' + rng.random_range(0..26u32) as u8))
                .collect();
            catalog.intern(&name);
        }
        let series = build_series(&instants(&mut rng, 500, 5, 0..80));
        let bytes = binary::encode_series(&series, &catalog);
        let (series2, catalog2) = binary::decode_series(&bytes).unwrap();
        assert_eq!(series, series2, "case {case}");
        assert_eq!(catalog.len(), catalog2.len(), "case {case}");
        // Any single-byte corruption is detected (checksum or structure).
        if !bytes.is_empty() {
            let mut bad = bytes.to_vec();
            let idx = bad.len() / 2;
            bad[idx] ^= 0x5a;
            assert!(binary::decode_series(&bad).is_err(), "case {case}");
        }
    }
}

// -------------------------------------------------------- counting kernels

/// Universe widths straddling the u64 word boundary are where lane and
/// tail handling can silently diverge; 63/64/65 hit exactly the word-edge
/// cases, 130 exercises multi-word rows.
#[test]
fn kernels_and_shards_count_bit_identically() {
    use partial_periodic::core::vertical::{
        count_sharded, Kernel, ThreadedExecutor, VerticalIndex,
    };
    use std::sync::Arc;

    for (case, mut rng) in cases("kernels_and_shards", 96) {
        let n_letters = rng.random_range(1..24);
        let n_columns = [63, 64, 65, 130][rng.random_range(0..4)] + rng.random_range(0..70);
        let column_bits: Vec<BTreeSet<usize>> = (0..rng.random_range(1..140usize))
            .map(|_| set_of(&mut rng, 0..23, 0..6))
            .collect();
        let weighted: bool = rng.random();
        let pattern_bits = set_of(&mut rng, 0..23, 0..6);
        let split = rng.random_range(1..8);

        let cols: Vec<LetterSet> = (0..n_columns)
            .map(|c| {
                let bits = &column_bits[c % column_bits.len()];
                LetterSet::from_indices(n_letters, bits.iter().copied().filter(|&i| i < n_letters))
            })
            .collect();
        let weights = weighted.then(|| {
            (0..n_columns)
                .map(|c| 1 + (c as u64 * 7) % 13)
                .collect::<Vec<u64>>()
        });
        let index = VerticalIndex::from_columns(n_letters, &cols, weights.clone());
        // The empty pattern is a legal candidate (subpattern of every
        // column) and skips the AND loop entirely — always probe it.
        let empty = LetterSet::new(n_letters);
        let pattern = LetterSet::from_indices(
            n_letters,
            pattern_bits.iter().copied().filter(|&i| i < n_letters),
        );

        for p in [&empty, &pattern] {
            // Ground truth straight from the column sets.
            let naive: u64 = cols
                .iter()
                .enumerate()
                .filter(|(_, col)| p.is_subset(col))
                .map(|(c, _)| weights.as_ref().map_or(1, |w| w[c]))
                .sum();

            let mut ops = 0u64;
            assert_eq!(
                index.count_with_kernel(p, Kernel::Scalar, &mut ops),
                naive,
                "case {case}"
            );
            assert_eq!(
                index.count_with_kernel(p, Kernel::Wide, &mut ops),
                naive,
                "case {case}"
            );

            // Word-range partials must sum exactly no matter where the
            // cuts land — including mid-word-block splits.
            let words = index.words_per_row();
            let cut = (words / split.min(words).max(1)).max(1);
            let mut summed = 0u64;
            let mut at = 0;
            while at < words {
                let hi = (at + cut).min(words);
                summed += index.count_range(p, at..hi);
                at = hi;
            }
            assert_eq!(summed, naive, "case {case}");
        }

        // The sharded path (forced to split even tiny geometries) must
        // agree candidate-for-candidate on both kernels. Pad the level
        // with lex-ordered siblings of the pattern — the shape the Apriori
        // join emits — so the wide kernel's prefix-AND reuse is exercised
        // against the per-candidate scalar reference.
        let shared = Arc::new(index);
        let mut cands = vec![empty.clone(), pattern.clone()];
        let ls: Vec<usize> = (0..n_letters).filter(|&i| pattern.contains(i)).collect();
        if ls.len() >= 2 {
            for extra in (0..n_letters).filter(|&i| !pattern.contains(i)).take(4) {
                cands.push(LetterSet::from_indices(
                    n_letters,
                    ls[..ls.len() - 1].iter().copied().chain([extra]),
                ));
            }
        }
        let executor = ThreadedExecutor::with_min_shard_words(split.max(2), 1);
        for kernel in [Kernel::Scalar, Kernel::Wide] {
            let totals = count_sharded(&shared, &cands, kernel, &executor);
            let mut ops = 0u64;
            let expect: Vec<u64> = cands
                .iter()
                .map(|p| shared.count_with_kernel(p, Kernel::Scalar, &mut ops))
                .collect();
            assert_eq!(totals, expect, "case {case}: {kernel:?}");
        }
    }
}

/// The weighted transpose (tree hits as columns, hit multiplicities as
/// weights) is the hit-set derive path; every kernel must agree with the
/// tree walk on it.
#[test]
fn tree_transpose_counts_identically_on_every_kernel() {
    use partial_periodic::core::vertical::{Kernel, VerticalIndex};

    for (case, mut rng) in cases("tree_transpose", 128) {
        let universe = rng.random_range(2..10);
        let hits = tree_hits(&mut rng, universe);
        let candidate: BTreeSet<usize> = set_of(&mut rng, 0..9, 0..5)
            .into_iter()
            .filter(|&i| i < universe)
            .collect();

        let mut tree = MaxSubpatternTree::new(LetterSet::full(universe));
        for h in &hits {
            tree.insert(&LetterSet::from_indices(universe, h.iter().copied()));
        }
        let index = VerticalIndex::from_tree(&tree);
        let cand = LetterSet::from_indices(universe, candidate.iter().copied());
        let naive = hits.iter().filter(|h| candidate.is_subset(h)).count() as u64;

        let mut ops = 0u64;
        assert_eq!(
            index.count_with_kernel(&cand, Kernel::Scalar, &mut ops),
            naive,
            "case {case}"
        );
        assert_eq!(
            index.count_with_kernel(&cand, Kernel::Wide, &mut ops),
            naive,
            "case {case}"
        );
        assert_eq!(index.count_with(&cand, &mut ops), naive, "case {case}");
    }
}

// ---------------------------------------------------------- self-verification

/// Honest mines audit clean, and the cross-check — every engine plus the
/// scalar, sharded, incremental and streaming arms — agrees.
#[test]
fn auditor_is_clean_on_honest_mines_of_arbitrary_series() {
    use partial_periodic::audit::{audit, cross_check, AuditMode};
    use partial_periodic::hitset;

    let catalog = catalog_of(6);
    for (case, mut rng) in cases("auditor_clean", 48) {
        let instants = instants(&mut rng, 6, 4, 12..120);
        let period = rng.random_range(2..8);
        let config = MineConfig::new(rng.random_range(200..=1000u32) as f64 / 1000.0).unwrap();
        let series = build_series(&instants);

        let result = hitset::mine(&series, period, &config).unwrap();
        let report = audit(&series, &result, &catalog, AuditMode::Full).unwrap();
        assert!(report.is_clean(), "case {case}: {:?}", report.violations);

        let check = cross_check(&series, period, &config, &catalog).unwrap();
        assert_eq!(check.algorithms.len(), 8, "case {case}");
        assert!(
            check.agreed(),
            "case {case}: engines disagree: {:?}",
            check.report.violations
        );
    }
}

#[test]
fn auditor_flags_any_tampered_count() {
    use partial_periodic::audit::{audit, AuditMode, Violation};
    use partial_periodic::hitset;

    let catalog = catalog_of(4);
    let config = MineConfig::new(0.4).unwrap();
    let mut tampered = 0;
    for (case, mut rng) in cases("auditor_tamper", 96) {
        let instants = instants(&mut rng, 4, 3, 24..100);
        let period = rng.random_range(2..6);
        let victim = rng.random_range(0..64);
        let bump = rng.random_range(1..5u64);
        let series = build_series(&instants);

        let mut result = hitset::mine(&series, period, &config).unwrap();
        if result.frequent.is_empty() {
            continue;
        }
        tampered += 1;
        let victim = victim % result.frequent.len();
        result.frequent[victim].count += bump;

        let report = audit(&series, &result, &catalog, AuditMode::Full).unwrap();
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::CountMismatch { .. } | Violation::CountExceedsSegments { .. }
            )),
            "case {case}: bump {bump} on pattern #{victim} escaped: {:?}",
            report.violations
        );
    }
    assert!(tampered >= 32, "only {tampered} cases mined anything");
}
