//! Out-of-core mining over a [`SeriesSource`].
//!
//! §5 of the paper: "In general, the time series of features may need to be
//! stored on disk … there would be a large amount of extra disk-IO
//! associated with Apriori, but not with max-subpattern hit-set since it
//! only requires two scans." These miners make that claim testable: they
//! consume any [`SeriesSource`] — in particular the disk-streaming
//! [`ppm_timeseries::storage::stream::FileSource`] — and *every* pass over
//! the data is a physical re-scan of the source. The reported
//! `stats.series_scans` is taken from the source itself.
//!
//! Results are identical to the in-memory miners (tested); only the data
//! movement differs.

use std::collections::HashMap;

use ppm_timeseries::{FeatureId, SeriesSource};

use crate::apriori::{for_each_combination, join_candidates};
use crate::error::{Error, Result};
use crate::guard::{ResourceGuard, DEADLINE_CHECK_INTERVAL};
use crate::hitset::derive::{derive_frequent, CountStrategy};
use crate::hitset::MaxSubpatternTree;
use crate::letters::{Alphabet, LetterSet};
use crate::result::{FrequentPattern, MiningResult};
use crate::scan::{MineConfig, Scan1};
use crate::stats::MiningStats;

/// Scan 1 over a source: one physical pass.
pub fn scan_frequent_letters_streaming(
    source: &mut dyn SeriesSource,
    period: usize,
    config: &MineConfig,
) -> Result<Scan1> {
    let n = source.instant_count();
    if period == 0 || period > n {
        return Err(Error::InvalidPeriod {
            period,
            series_len: n,
        });
    }
    let m = n / period;
    let usable = m * period;
    let min_count = config.min_count(m);

    let mut counts: HashMap<(u32, FeatureId), u64> = HashMap::new();
    source.scan(&mut |t, features| {
        if t < usable {
            let offset = (t % period) as u32;
            for &f in features {
                *counts.entry((offset, f)).or_insert(0) += 1;
            }
        }
    })?;

    let alphabet = Alphabet::new(
        period,
        counts
            .iter()
            .filter(|&(_, &c)| c >= min_count)
            .map(|(&(o, f), _)| (o as usize, f)),
    );
    let letter_counts = (0..alphabet.len())
        .map(|i| {
            let (o, f) = alphabet.letter(i);
            counts[&(o as u32, f)]
        })
        .collect();
    Ok(Scan1 {
        alphabet,
        letter_counts,
        segment_count: m,
        min_count,
    })
}

/// Algorithm 3.2 over a source: exactly two physical passes.
pub fn mine_hitset_streaming(
    source: &mut dyn SeriesSource,
    period: usize,
    config: &MineConfig,
) -> Result<MiningResult> {
    let _mine_span = ppm_observe::span("stream.mine");
    let guard = ResourceGuard::new(config);
    let scans_before = source.scans_performed();
    let scan1 = {
        let _span = ppm_observe::span("stream.scan1");
        scan_frequent_letters_streaming(source, period, config)?
    };
    let m = scan1.segment_count;
    let usable = m * period;
    ppm_observe::gauge("hitset.segments_total", m as u64);
    guard.check_deadline(&MiningStats {
        series_scans: source.scans_performed() - scans_before,
        max_level: 1,
        ..Default::default()
    })?;

    // Pass 2: segment hits straight into the tree. Scan closures cannot
    // return errors, so guard violations raise a flag that mutes the rest
    // of the pass and is converted to the typed error afterwards.
    let mut tree = MaxSubpatternTree::new(scan1.alphabet.full_set());
    let mut over_budget = false;
    let mut past_deadline = false;
    {
        let _span = ppm_observe::span("stream.scan2");
        let mut hit = scan1.alphabet.empty_set();
        let alphabet = &scan1.alphabet;
        let tree = &mut tree;
        let over_budget = &mut over_budget;
        let past_deadline = &mut past_deadline;
        let mut segments_done = 0usize;
        source.scan(&mut |t, features| {
            if t >= usable || *over_budget || *past_deadline {
                return;
            }
            let offset = t % period;
            alphabet.project_instant(offset, features, &mut hit);
            if offset == period - 1 {
                if hit.len() >= 2 {
                    tree.insert(&hit);
                    if guard.tree_over_budget(tree.node_count()) {
                        *over_budget = true;
                    }
                }
                hit.clear();
                segments_done += 1;
                if segments_done.is_multiple_of(DEADLINE_CHECK_INTERVAL)
                    && guard.deadline_exceeded()
                {
                    *past_deadline = true;
                }
            }
        })?;
        ppm_observe::counter("hitset.segments", segments_done as u64);
    }
    if over_budget || past_deadline {
        let stats = MiningStats {
            series_scans: source.scans_performed() - scans_before,
            max_level: 1,
            tree_nodes: tree.node_count(),
            distinct_hits: tree.distinct_hits(),
            hit_insertions: tree.total_hits(),
            ..Default::default()
        };
        return Err(if over_budget {
            guard.tree_error(tree.node_count(), &stats)
        } else {
            guard.deadline_error(&stats)
        });
    }

    let mut stats = MiningStats {
        series_scans: source.scans_performed() - scans_before,
        max_level: 1,
        tree_nodes: tree.node_count(),
        distinct_hits: tree.distinct_hits(),
        hit_insertions: tree.total_hits(),
        ..Default::default()
    };
    ppm_observe::gauge("tree.nodes", stats.tree_nodes as u64);
    ppm_observe::gauge("tree.distinct_hits", stats.distinct_hits as u64);

    let _derive_span = ppm_observe::span("stream.derive");
    let n_letters = scan1.alphabet.len();
    let mut frequent: Vec<FrequentPattern> = scan1
        .letter_counts
        .iter()
        .enumerate()
        .map(|(idx, &count)| FrequentPattern {
            letters: LetterSet::from_indices(n_letters, [idx]),
            count,
        })
        .collect();
    derive_frequent(
        &tree,
        &scan1,
        CountStrategy::default(),
        config.kernel(),
        &mut frequent,
        &mut stats,
    );

    let mut result = MiningResult {
        period,
        segment_count: m,
        min_confidence: config.min_confidence(),
        min_count: scan1.min_count,
        alphabet: scan1.alphabet,
        frequent,
        stats,
    };
    result.sort();
    Ok(result)
}

/// Algorithm 3.2 broken into resumable steps, with scan-2 progress tracked
/// at **segment granularity**.
///
/// [`mine_hitset_streaming`] runs both scans inside one call, so an
/// interruption during scan 2 (source failure with retries exhausted,
/// operator abort) loses the whole pass. This miner keeps the
/// max-subpattern tree and a count of completed segments across failures: a
/// [`run_scan2`](Self::run_scan2) that errors out retains every segment it
/// finished, and the next call re-scans the source while *skipping* those
/// segments — work lost to an interruption is bounded by one segment.
///
/// The reported `series_scans` counts scan 1 plus one per physical
/// [`run_scan2`](Self::run_scan2) pass, so an uninterrupted run reports
/// exactly 2, and the [`MiningResult`] is then identical to
/// [`mine_hitset_streaming`]'s.
///
/// ```
/// use ppm_core::streaming::ResumableHitsetMiner;
/// use ppm_core::MineConfig;
/// use ppm_timeseries::{MemorySource, SeriesBuilder};
///
/// let mut b = SeriesBuilder::new();
/// for t in 0..12u32 {
///     b.push_instant([ppm_timeseries::FeatureId::from_raw(t % 3)]);
/// }
/// let series = b.finish();
/// let mut source = MemorySource::new(&series);
/// let config = MineConfig::new(0.9).unwrap();
///
/// let mut miner = ResumableHitsetMiner::start(&mut source, 3, &config).unwrap();
/// miner.run_scan2(&mut source).unwrap();
/// assert!(miner.scan2_complete());
/// let result = miner.finish();
/// assert_eq!(result.stats.series_scans, 2);
/// ```
#[derive(Debug, Clone)]
pub struct ResumableHitsetMiner {
    period: usize,
    config: MineConfig,
    scan1: Scan1,
    tree: MaxSubpatternTree,
    segments_done: usize,
    scan2_passes: usize,
}

impl ResumableHitsetMiner {
    /// Runs scan 1 (one physical pass) and prepares an empty tree.
    pub fn start(
        source: &mut dyn SeriesSource,
        period: usize,
        config: &MineConfig,
    ) -> Result<Self> {
        let scan1 = scan_frequent_letters_streaming(source, period, config)?;
        let tree = MaxSubpatternTree::new(scan1.alphabet.full_set());
        Ok(ResumableHitsetMiner {
            period,
            config: *config,
            scan1,
            tree,
            segments_done: 0,
            scan2_passes: 0,
        })
    }

    /// The mining period.
    pub fn period(&self) -> usize {
        self.period
    }

    /// Total whole segments scan 2 must process.
    pub fn segment_count(&self) -> usize {
        self.scan1.segment_count
    }

    /// Segments already folded into the tree — survives a failed
    /// [`run_scan2`](Self::run_scan2).
    pub fn segments_done(&self) -> usize {
        self.segments_done
    }

    /// Whether every segment has been processed.
    pub fn scan2_complete(&self) -> bool {
        self.segments_done >= self.scan1.segment_count
    }

    /// One physical scan-2 pass: re-scans `source` from the start, skips
    /// the segments already done, and folds the rest into the tree. On
    /// error, all segments completed before the failure are retained; call
    /// again (typically after the transient condition clears) to resume.
    /// A call when scan 2 is already complete performs no scan.
    pub fn run_scan2(&mut self, source: &mut dyn SeriesSource) -> Result<()> {
        if self.scan2_complete() {
            return Ok(());
        }
        let _span = ppm_observe::span("stream.scan2");
        if self.segments_done > 0 {
            let done = self.segments_done;
            let total = self.scan1.segment_count;
            ppm_observe::mark("stream.resume", || {
                format!("resuming scan 2 at segment {done}/{total}")
            });
        }
        self.scan2_passes += 1;
        let period = self.period;
        let usable = self.scan1.segment_count * period;
        let alphabet = &self.scan1.alphabet;
        let tree = &mut self.tree;
        let done = &mut self.segments_done;
        let mut hit = alphabet.empty_set();
        source.scan(&mut |t, features| {
            if t >= usable {
                return;
            }
            let j = t / period;
            if j < *done {
                return;
            }
            let offset = t % period;
            alphabet.project_instant(offset, features, &mut hit);
            if offset == period - 1 {
                if hit.len() >= 2 {
                    tree.insert(&hit);
                }
                hit.clear();
                *done = j + 1;
            }
        })?;
        Ok(())
    }

    /// Derives the frequent patterns from scan 1 and the tree.
    ///
    /// Normally called once [`scan2_complete`](Self::scan2_complete); if
    /// called earlier the result reflects only the segments processed so
    /// far (a partial, degraded answer — pattern counts can only grow with
    /// more segments).
    pub fn finish(self) -> MiningResult {
        let scan1 = self.scan1;
        let mut stats = MiningStats {
            series_scans: 1 + self.scan2_passes,
            max_level: 1,
            tree_nodes: self.tree.node_count(),
            distinct_hits: self.tree.distinct_hits(),
            hit_insertions: self.tree.total_hits(),
            ..Default::default()
        };
        let n_letters = scan1.alphabet.len();
        let mut frequent: Vec<FrequentPattern> = scan1
            .letter_counts
            .iter()
            .enumerate()
            .map(|(idx, &count)| FrequentPattern {
                letters: LetterSet::from_indices(n_letters, [idx]),
                count,
            })
            .collect();
        derive_frequent(
            &self.tree,
            &scan1,
            CountStrategy::default(),
            self.config.kernel(),
            &mut frequent,
            &mut stats,
        );

        let mut result = MiningResult {
            period: self.period,
            segment_count: scan1.segment_count,
            min_confidence: self.config.min_confidence(),
            min_count: scan1.min_count,
            alphabet: scan1.alphabet,
            frequent,
            stats,
        };
        result.sort();
        result
    }
}

/// The incremental-vertical sibling of [`mine_hitset_streaming`]: one
/// physical pass feeding an
/// [`IncrementalVerticalIndex`](crate::vertical::incremental::IncrementalVerticalIndex)
/// segment by segment, then a re-derive off the live bitmaps.
///
/// Where the hit-set miner needs a second physical scan to segment hits
/// into the tree, the incremental index *is* the scan-2 state — so this
/// miner reads the source once and can keep absorbing segments
/// afterwards. Passing `window` keeps only the most recent that many
/// segments (earlier ones are evicted as the scan progresses), mining
/// the tail window of the stream. The reported `series_scans` counts the
/// single physical pass.
pub fn mine_incremental_streaming(
    source: &mut dyn SeriesSource,
    period: usize,
    config: &MineConfig,
    window: Option<usize>,
) -> Result<MiningResult> {
    let _mine_span = ppm_observe::span("stream.incremental.mine");
    let n = source.instant_count();
    if period == 0 || period > n {
        return Err(Error::InvalidPeriod {
            period,
            series_len: n,
        });
    }
    let scans_before = source.scans_performed();
    let usable = (n / period) * period;
    let mut index = crate::vertical::incremental::IncrementalVerticalIndex::new(period, window);
    {
        let index = &mut index;
        let mut segment: Vec<Vec<FeatureId>> = Vec::with_capacity(period);
        source.scan(&mut |t, features| {
            if t >= usable {
                return;
            }
            segment.push(features.to_vec());
            if segment.len() == period {
                index.append_segment(segment.drain(..));
            }
        })?;
    }
    let mut result = index.rederive_dirty(config)?;
    result.stats.series_scans = source.scans_performed() - scans_before;
    Ok(result)
}

/// Algorithm 3.1 over a source: one physical pass per level.
pub fn mine_apriori_streaming(
    source: &mut dyn SeriesSource,
    period: usize,
    config: &MineConfig,
) -> Result<MiningResult> {
    let _mine_span = ppm_observe::span("stream.apriori.mine");
    let scans_before = source.scans_performed();
    let scan1 = {
        let _span = ppm_observe::span("stream.scan1");
        scan_frequent_letters_streaming(source, period, config)?
    };
    let m = scan1.segment_count;
    let usable = m * period;
    let n_letters = scan1.alphabet.len();

    let mut stats = MiningStats {
        max_level: 1,
        ..Default::default()
    };
    let mut frequent: Vec<FrequentPattern> = scan1
        .letter_counts
        .iter()
        .enumerate()
        .map(|(idx, &count)| FrequentPattern {
            letters: LetterSet::from_indices(n_letters, [idx]),
            count,
        })
        .collect();

    let mut level: Vec<Vec<u32>> = (0..n_letters as u32).map(|i| vec![i]).collect();
    let mut k = 1;
    while !level.is_empty() {
        let candidates = join_candidates(&level);
        stats.candidates_generated += candidates.len() as u64;
        if candidates.is_empty() {
            break;
        }
        k += 1;
        stats.max_level = k;

        // One physical pass counting this level's candidates.
        let _level_span = ppm_observe::span("apriori.level");
        ppm_observe::counter("apriori.candidates", candidates.len() as u64);
        let by_pattern: HashMap<&[u32], usize> = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| (c.as_slice(), i))
            .collect();
        let candidate_sets: Vec<LetterSet> = candidates
            .iter()
            .map(|c| LetterSet::from_indices(n_letters, c.iter().map(|&l| l as usize)))
            .collect();
        let mut counts = vec![0u64; candidates.len()];
        {
            let alphabet = &scan1.alphabet;
            let mut projection = alphabet.empty_set();
            let mut proj_letters: Vec<u32> = Vec::new();
            let counts = &mut counts;
            let subset_tests = &mut stats.subset_tests;
            source.scan(&mut |t, features| {
                if t >= usable {
                    return;
                }
                let offset = t % period;
                alphabet.project_instant(offset, features, &mut projection);
                if offset == period - 1 {
                    let present = projection.len();
                    if present >= k {
                        let enumerate_cost = crate::apriori::binomial(present, k);
                        if enumerate_cost <= candidates.len() as u64 {
                            proj_letters.clear();
                            proj_letters.extend(projection.iter().map(|l| l as u32));
                            for_each_combination(&proj_letters, k, |combo| {
                                *subset_tests += 1;
                                if let Some(&i) = by_pattern.get(combo) {
                                    counts[i] += 1;
                                }
                            });
                        } else {
                            for (i, cset) in candidate_sets.iter().enumerate() {
                                *subset_tests += 1;
                                if cset.is_subset(&projection) {
                                    counts[i] += 1;
                                }
                            }
                        }
                    }
                    projection.clear();
                }
            })?;
        }

        let mut next_level = Vec::new();
        for (cand, count) in candidates.into_iter().zip(counts) {
            if count >= scan1.min_count {
                frequent.push(FrequentPattern {
                    letters: LetterSet::from_indices(n_letters, cand.iter().map(|&l| l as usize)),
                    count,
                });
                next_level.push(cand);
            }
        }
        level = next_level;
    }
    stats.series_scans = source.scans_performed() - scans_before;

    let mut result = MiningResult {
        period,
        segment_count: m,
        min_confidence: config.min_confidence(),
        min_count: scan1.min_count,
        alphabet: scan1.alphabet,
        frequent,
        stats,
    };
    result.sort();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::{FeatureSeries, MemorySource, SeriesBuilder};

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    fn sample(n: usize) -> FeatureSeries {
        let mut b = SeriesBuilder::new();
        let mut x: u64 = 21;
        for t in 0..n {
            let mut inst = Vec::new();
            if t % 5 == 1 {
                inst.push(fid(0));
            }
            if t % 5 == 3 {
                inst.push(fid(1));
            }
            x = x.wrapping_mul(6364136223846793005).wrapping_add(9);
            if (x >> 61) == 0 {
                inst.push(fid(2));
            }
            b.push_instant(inst);
        }
        b.finish()
    }

    #[test]
    fn streaming_hitset_equals_in_memory() {
        let s = sample(600);
        let config = MineConfig::new(0.5).unwrap();
        let expect = crate::hitset::mine(&s, 5, &config).unwrap();
        let mut src = MemorySource::new(&s);
        let got = mine_hitset_streaming(&mut src, 5, &config).unwrap();
        assert_eq!(got.frequent, expect.frequent);
        assert_eq!(got.stats.series_scans, 2);
        assert_eq!(src.scans_performed(), 2);
    }

    #[test]
    fn streaming_apriori_equals_in_memory() {
        let s = sample(600);
        let config = MineConfig::new(0.5).unwrap();
        let expect = crate::apriori::mine(&s, 5, &config).unwrap();
        let mut src = MemorySource::new(&s);
        let got = mine_apriori_streaming(&mut src, 5, &config).unwrap();
        assert_eq!(got.frequent, expect.frequent);
        assert_eq!(got.stats.series_scans, expect.stats.series_scans);
        assert_eq!(src.scans_performed(), expect.stats.series_scans);
    }

    #[test]
    fn scan1_matches_in_memory() {
        let s = sample(300);
        let config = MineConfig::new(0.4).unwrap();
        let expect = crate::scan::scan_frequent_letters(&s, 5, &config).unwrap();
        let mut src = MemorySource::new(&s);
        let got = scan_frequent_letters_streaming(&mut src, 5, &config).unwrap();
        assert_eq!(got.alphabet, expect.alphabet);
        assert_eq!(got.letter_counts, expect.letter_counts);
        assert_eq!(got.segment_count, expect.segment_count);
    }

    #[test]
    fn streaming_incremental_equals_in_memory() {
        let s = sample(600);
        let config = MineConfig::new(0.5).unwrap();
        let expect = crate::hitset::mine(&s, 5, &config).unwrap();
        let mut src = MemorySource::new(&s);
        let got = mine_incremental_streaming(&mut src, 5, &config, None).unwrap();
        assert_eq!(got.frequent, expect.frequent);
        assert_eq!(got.stats.series_scans, 1, "one physical pass");
        assert_eq!(src.scans_performed(), 1);
    }

    #[test]
    fn streaming_incremental_window_mines_the_tail() {
        let s = busy(400);
        let config = MineConfig::new(0.2).unwrap();
        let mut src = MemorySource::new(&s);
        let got = mine_incremental_streaming(&mut src, 8, &config, Some(10)).unwrap();
        assert_eq!(got.segment_count, 10);
        // Cold-mine the last 10 whole segments for comparison.
        let mut b = SeriesBuilder::new();
        for t in 320..400 {
            b.push_instant(s.instant(t).to_vec());
        }
        let tail = b.finish();
        let expect = crate::hitset::mine(&tail, 8, &config).unwrap();
        assert_eq!(got.frequent, expect.frequent);
    }

    #[test]
    fn rejects_bad_period() {
        let s = sample(10);
        let config = MineConfig::default();
        let mut src = MemorySource::new(&s);
        assert!(mine_hitset_streaming(&mut src, 0, &config).is_err());
        assert!(mine_hitset_streaming(&mut src, 11, &config).is_err());
    }

    /// A series whose segment hits vary, so the tree actually grows.
    fn busy(n: usize) -> FeatureSeries {
        let mut b = SeriesBuilder::new();
        let mut x: u64 = 7;
        for _ in 0..n {
            let mut inst = Vec::new();
            for f in 0..4u32 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (x >> 33).is_multiple_of(2) {
                    inst.push(fid(f));
                }
            }
            b.push_instant(inst);
        }
        b.finish()
    }

    #[test]
    fn streaming_tree_budget_aborts_with_partial_stats() {
        let s = busy(400);
        let config = MineConfig::new(0.2).unwrap().with_max_tree_nodes(2);
        let mut src = MemorySource::new(&s);
        let err = mine_hitset_streaming(&mut src, 8, &config).unwrap_err();
        match err {
            Error::TreeBudgetExceeded {
                nodes,
                budget,
                stats,
            } => {
                assert_eq!(budget, 2);
                assert!(nodes > 2);
                assert!(stats.hit_insertions >= 1);
            }
            other => panic!("expected TreeBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn streaming_zero_deadline_aborts() {
        let s = busy(400);
        let config = MineConfig::new(0.2)
            .unwrap()
            .with_deadline(std::time::Duration::ZERO);
        let mut src = MemorySource::new(&s);
        let err = mine_hitset_streaming(&mut src, 8, &config).unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded { .. }), "got {err:?}");
        assert_eq!(err.partial_stats().unwrap().series_scans, 1);
    }

    #[test]
    fn resumable_clean_run_matches_one_shot() {
        let s = busy(400);
        let config = MineConfig::new(0.2).unwrap();
        let mut src = MemorySource::new(&s);
        let expect = mine_hitset_streaming(&mut src, 8, &config).unwrap();

        let mut src = MemorySource::new(&s);
        let mut miner = ResumableHitsetMiner::start(&mut src, 8, &config).unwrap();
        assert_eq!(miner.segment_count(), 50);
        assert_eq!(miner.segments_done(), 0);
        miner.run_scan2(&mut src).unwrap();
        assert!(miner.scan2_complete());
        let got = miner.finish();
        assert_eq!(got.frequent, expect.frequent);
        assert_eq!(
            got.stats, expect.stats,
            "clean resumable run is bit-identical"
        );
    }

    #[test]
    fn resumable_interrupted_scan2_keeps_segment_progress() {
        use ppm_timeseries::{Fault, FaultInjectingSource, FaultPlan};

        let s = busy(400);
        let config = MineConfig::new(0.2).unwrap();
        let mut clean = MemorySource::new(&s);
        let expect = mine_hitset_streaming(&mut clean, 8, &config).unwrap();

        // Attempt 0 is scan 1 (clean); attempt 1 — the first scan-2 pass —
        // dies after 303 instants (37 whole segments of period 8).
        let plan = FaultPlan::new().fail_scan(1, Fault::ShortRead { instants: 303 });
        let mut src = FaultInjectingSource::new(MemorySource::new(&s), plan);

        let mut miner = ResumableHitsetMiner::start(&mut src, 8, &config).unwrap();
        let err = miner.run_scan2(&mut src).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(miner.segments_done(), 37, "progress survives the failure");
        assert!(!miner.scan2_complete());

        // The retry pass completes the remaining segments without
        // re-inserting the first 37.
        miner.run_scan2(&mut src).unwrap();
        assert!(miner.scan2_complete());
        let got = miner.finish();
        assert_eq!(got.frequent, expect.frequent);
        assert_eq!(got.stats.hit_insertions, expect.stats.hit_insertions);
        assert_eq!(
            got.stats.series_scans, 3,
            "scan 1 + two physical scan-2 passes"
        );
    }

    #[test]
    fn resumable_run_after_completion_is_a_no_op() {
        let s = busy(80);
        let config = MineConfig::new(0.2).unwrap();
        let mut src = MemorySource::new(&s);
        let mut miner = ResumableHitsetMiner::start(&mut src, 8, &config).unwrap();
        miner.run_scan2(&mut src).unwrap();
        let scans = src.scans_performed();
        miner.run_scan2(&mut src).unwrap();
        assert_eq!(src.scans_performed(), scans, "no extra physical scan");
        assert_eq!(miner.finish().stats.series_scans, 2);
    }
}
