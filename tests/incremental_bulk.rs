//! Differential test of the incremental index's bulk view path.
//!
//! Two indexes grow side by side over the same seeded series: one takes
//! random runs of segments through `append_segments_from_view` (whole
//! builds, catch-ups after a derive, single segments), the other takes
//! every segment alone through the feature-list `append_segment` path.
//! After every run both re-derive at a random confidence and must equal
//! a cold `mine_vertical_view` of the live window, field for field;
//! unbounded, their bitmap footprints must match too. Windowed runs are
//! often longer than the window, which exercises the skip of segments
//! the run itself would evict; explicit evictions between runs cover
//! partly drained windows.

use partial_periodic::core::vertical::incremental::IncrementalVerticalIndex;
use partial_periodic::core::vertical::mine_vertical_view;
use partial_periodic::core::{MineConfig, MiningResult};
use partial_periodic::datagen::rng::{Rng, SplitMix64};
use partial_periodic::timeseries::{EncodedSeriesView, FeatureId};

/// A seeded packed series: `segments · period` instants over `width`
/// features. Eight letters are planted at high odds and the rest are
/// noise, so the frequent lattice is non-trivial but small.
fn series(rng: &mut SplitMix64, period: usize, width: usize, segments: usize) -> Vec<u64> {
    let wpi = width.div_ceil(64);
    let mut odds: Vec<f64> = (0..period * width)
        .map(|_| 0.15 * rng.random::<f64>())
        .collect();
    for _ in 0..8 {
        let letter = rng.random_range(0..period * width);
        odds[letter] = 0.6 + 0.4 * rng.random::<f64>();
    }
    let mut words = vec![0u64; segments * period * wpi];
    for (t, instant) in words.chunks_mut(wpi).enumerate() {
        for f in 0..width {
            if rng.random::<f64>() < odds[(t % period) * width + f] {
                instant[f / 64] |= 1u64 << (f % 64);
            }
        }
    }
    words
}

/// The live window's cold mine.
fn cold(
    index: &IncrementalVerticalIndex,
    width: usize,
    words: &[u64],
    config: &MineConfig,
) -> MiningResult {
    let period = index.period();
    let instant_words = width.div_ceil(64);
    let (a, b) = (
        index.evicted_segments() * period,
        index.appended_segments() * period,
    );
    let view = EncodedSeriesView::new(width, b - a, &words[a * instant_words..b * instant_words]);
    mine_vertical_view(view, period, config).expect("a non-empty window mines")
}

fn assert_same(label: &str, got: &MiningResult, want: &MiningResult) {
    assert_eq!(
        got.frequent, want.frequent,
        "{label}: frequent sets diverge"
    );
    assert_eq!(got.alphabet, want.alphabet, "{label}: alphabets diverge");
    assert_eq!(got.segment_count, want.segment_count, "{label}");
    assert_eq!(got.min_count, want.min_count, "{label}");
    assert_eq!(got.stats, want.stats, "{label}: stats diverge");
}

/// Grows a bulk and a per-segment index through random runs, checking
/// both against a cold mine after every run.
fn differential(seed: u64, period: usize, width: usize, segments: usize, window: Option<usize>) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let words = series(&mut rng, period, width, segments);
    let view = EncodedSeriesView::new(width, segments * period, &words);
    let mut bulk = IncrementalVerticalIndex::new(period, window);
    let mut single = IncrementalVerticalIndex::new(period, window);
    // At least 40 segments before the first derive (over fewer, noise
    // letters cross the threshold together and the lattice explodes),
    // then a mix of long catch-ups and steady-state appends of 1-3.
    let longest = window.map_or(segments / 2, |w| w * 2 + 3);
    let mut next = 0;
    let mut state = 0;
    while next < segments {
        state += 1;
        // Explicit evictions, as a state of their own, leave a window
        // wrapped but not full at a derive, so the next append's first
        // touch of a word must still snapshot the live segments in it.
        // They keep 40 segments live, for the same reason as above.
        let spare = bulk.live_segments().saturating_sub(40);
        let run = if spare > 0 && rng.random_range(0..4u32) == 0 {
            for _ in 0..rng.random_range(1..=spare) {
                assert!(bulk.evict_oldest() && single.evict_oldest());
            }
            0
        } else {
            let run = if next == 0 {
                rng.random_range(40..=longest.max(40))
            } else if rng.random_range(0..3u32) == 0 {
                rng.random_range(1..=3)
            } else {
                rng.random_range(1..=longest)
            }
            .min(segments - next);
            bulk.append_segments_from_view(view, next..next + run);
            for segment in next..next + run {
                single.append_segment(
                    (segment * period..(segment + 1) * period)
                        .map(|t| view.features_at(t).collect::<Vec<FeatureId>>()),
                );
            }
            next += run;
            run
        };

        let label = format!("seed {seed} window {window:?} state {state} (+{run} to {next})");
        assert_eq!(
            bulk.appended_segments(),
            single.appended_segments(),
            "{label}"
        );
        assert_eq!(
            bulk.evicted_segments(),
            single.evicted_segments(),
            "{label}"
        );
        assert_eq!(bulk.dirty_words(), single.dirty_words(), "{label}");
        if window.is_none() {
            assert_eq!(bulk.bitmap_bytes(), single.bitmap_bytes(), "{label}");
            assert_eq!(bulk.n_letters(), single.n_letters(), "{label}");
        }
        let config = MineConfig::new(0.3 + 0.5 * rng.random::<f64>()).expect("valid confidence");
        let want = cold(&bulk, width, &words, &config);
        assert_same(&label, &bulk.rederive_dirty(&config).unwrap(), &want);
        assert_same(&label, &single.rederive_dirty(&config).unwrap(), &want);
    }
}

#[test]
fn bulk_builds_and_catch_ups_match_single_appends_and_cold_mines() {
    // Runs of up to 600 segments span two 512-segment append groups, and
    // 1,200 segments take five layout doublings; width 70 puts letters
    // in a second word.
    differential(1, 7, 70, 1_200, None);
    differential(2, 5, 3, 300, None);
}

#[test]
fn windowed_bulk_runs_match_single_appends_and_cold_mines() {
    // Windows below, at and past a word boundary, one of three words,
    // and one past a whole append group.
    for (seed, window) in [(3, 63), (4, 64), (5, 65), (6, 150), (7, 600)] {
        differential(seed, 4, 66, 1_000, Some(window));
    }
    // One- and two-segment rings hold every letter they see as frequent,
    // so they get a three-feature alphabet.
    for (seed, window) in [(8, 1), (9, 2)] {
        differential(seed, 3, 3, 200, Some(window));
    }
}

#[test]
fn from_view_matches_a_cold_mine_of_the_last_window_segments() {
    // 1,100 segments fill two append groups and part of a third; a
    // 600-segment ring splits its group at the ring's end.
    let (period, segments) = (6, 1_100);
    let config = MineConfig::new(0.5).expect("valid confidence");
    for (width, window) in [
        (40, None),
        (3, Some(1)),
        (40, Some(64)),
        (40, Some(130)),
        (40, Some(600)),
        (40, Some(segments)),
        (40, Some(segments + 10)),
    ] {
        let mut rng = SplitMix64::seed_from_u64(10);
        let words = series(&mut rng, period, width, segments);
        let view = EncodedSeriesView::new(width, segments * period, &words);
        let mut index = IncrementalVerticalIndex::from_view(view, period, window);
        assert_eq!(index.appended_segments(), segments);
        assert_eq!(
            index.live_segments(),
            window.map_or(segments, |w| w.min(segments))
        );
        let want = cold(&index, width, &words, &config);
        assert_same(
            &format!("window {window:?}"),
            &index.rederive_dirty(&config).unwrap(),
            &want,
        );
    }
}
