//! Incremental sliding-window maintenance of the vertical index.
//!
//! The paper's miners assume a static series: every mine pays scan 1 +
//! scan 2 + a full derive. Continuous ingestion makes that wasteful — a
//! store that grows by one segment re-pays the whole derive for a window
//! that changed in exactly one column. This module keeps the vertical
//! bitmaps *live* instead:
//!
//! * [`append_segments_from_view`](IncrementalVerticalIndex::append_segments_from_view)
//!   adds a run of whole segments of an encoded view in one transposing
//!   pass: each 512-segment group is scattered into per-letter
//!   accumulators and every touched row written once, with the F1 counts
//!   bumped by popcount — no scan, no per-occurrence hashing. Cold
//!   builds, catch-ups and single appends all take this path;
//!   [`append_segment`](IncrementalVerticalIndex::append_segment) is the
//!   feature-list equivalent for sources that are not bitmap views;
//! * [`evict_oldest`](IncrementalVerticalIndex::evict_oldest) clears the
//!   retiring segment's column and decrements the counts — the column
//!   store is a ring of fixed-width bitmap blocks, so eviction frees the
//!   slot the next append reuses;
//! * [`rederive_dirty`](IncrementalVerticalIndex::rederive_dirty) re-mines
//!   the window, recounting only what could have changed: candidates
//!   whose letters are all untouched since the last derive carry their
//!   previous count forward verbatim; candidates containing a touched
//!   letter are delta-recounted over just the **dirty word range** (the
//!   64-segment blocks that actually changed), reusing the wide
//!   AND+popcount kernel and its prefix cache on that range; only
//!   candidates never counted before (letters newly crossed over the F1
//!   threshold, or the threshold itself moved) pay a full-width count.
//!   The per-level Apriori joins are memoized across derives (exact
//!   input equality in stable row ids), so in the steady state the
//!   candidate lattice itself is not re-derived either — a re-mine after
//!   one appended segment touches one word per live row and hashes each
//!   candidate once.
//!
//! Correctness leans on two invariants. First, AND+popcount is
//! column-order invariant, so ring rotation never changes a count and
//! every state is bit-identical to a cold [`super::mine_vertical_view`]
//! of the same window (the audit cross-check runs this engine as its
//! seventh arm). Second, counts over disjoint word ranges sum exactly,
//! so `new = prev − prev_dirty + live_dirty` needs only a per-word
//! snapshot of the columns taken lazily at first mutation since the last
//! derive.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::time::Instant;

use ppm_timeseries::{EncodedSeriesView, FeatureId};

use crate::error::{Error, Result};
use crate::letters::{Alphabet, LetterSet};
use crate::result::{FrequentPattern, MiningResult};
use crate::scan::MineConfig;
use crate::stats::MiningStats;

use super::kernel::{count_dispatch_cached, PrefixCache, ResolvedKernel, BLOCK_WORDS};

/// Column words one bulk-append group spans (64 segments each): each
/// letter's accumulator is one 64-byte line, and each row is written as
/// one 64-byte run per 512 segments rather than one word per 64.
const GROUP_WORDS: usize = 8;

/// Counts incremented by one level's worth of candidate classification,
/// reported as gauges after each re-derive.
#[derive(Debug, Default, Clone, Copy)]
struct DeriveTally {
    /// Candidates whose previous count carried forward unrecounted.
    carried: u64,
    /// Candidates delta-recounted over the dirty word range only.
    delta: u64,
    /// Candidates counted over the full window width.
    full: u64,
}

/// A candidate's count at the derive stamped in `gen`. Carry and delta
/// reuse are valid only for entries from the immediately preceding
/// derive — `rederive_dirty` purges everything older, so a candidate
/// that drops out of the lattice and later returns pays a full count.
#[derive(Debug, Clone, Copy)]
struct PrevCount {
    count: u64,
    gen: u64,
}

/// One memoized Apriori join: `output = join(input)`, both flat arrays
/// of row ids (`input` chunked by `k`, `output` by `k + 1`). The join is
/// a pure function of its input, so exact input equality is the whole
/// validity condition — in the steady state the frequent levels barely
/// move between derives and every level is a cache hit.
#[derive(Debug, Default, Clone)]
struct JoinLevel {
    input: Vec<u32>,
    output: Vec<u32>,
}

/// A sliding window of period segments held as live per-letter bitmaps.
///
/// Columns are segments. With a window capacity `C` the column store is a
/// ring: global segment `j` occupies slot `j % C`, and appending at
/// capacity first evicts the oldest segment. Without a capacity the store
/// grows (geometrically re-laid-out) and segments keep their global slot.
/// Every `(offset, feature)` letter ever seen in-window is interned to a
/// stable row id; the alphabet is re-derived per mine from the maintained
/// F1 counts, so the index itself is threshold-agnostic and one index
/// serves queries at any confidence.
#[derive(Debug, Clone)]
pub struct IncrementalVerticalIndex {
    period: usize,
    capacity: Option<usize>,
    words_per_row: usize,
    /// Row-major letter bitmaps: `rows[r * words_per_row + w]`.
    rows: Vec<u64>,
    /// Maintained F1 count per interned row (popcount of the row).
    row_counts: Vec<u64>,
    /// `(offset, feature raw)` → row id, assigned in arrival order.
    letter_ids: HashMap<(u32, u32), usize>,
    /// Row id → `(offset, feature)`.
    letters: Vec<(usize, FeatureId)>,
    /// Segments ever appended (the next global segment index).
    appended: usize,
    /// Segments ever evicted (the oldest live global segment index).
    evicted: usize,
    /// Word → full column snapshot (indexed by row id) taken at first
    /// mutation since the last derive. Rows interned later read as 0 —
    /// exactly their value at the last derive — so a word that held no
    /// live segment then (every word, before the first derive) gets an
    /// empty snapshot.
    dirty: BTreeMap<usize, Vec<u64>>,
    /// Per row id: whether any bit changed since the last derive.
    dirty_rows: Vec<bool>,
    /// Counts of **every** candidate counted at the last derive (frequent
    /// and infrequent), keyed by the candidate's row ids in alphabet
    /// order. Both row ids and alphabet order — sorted `(offset,
    /// feature)` — are stable across derives, so the key survives
    /// alphabet reshuffles and threshold changes. Entries update in
    /// place (no per-derive rebuild); stale generations are purged at
    /// the end of each derive.
    prev_counts: HashMap<Box<[u32]>, PrevCount>,
    /// Monotonic derive counter stamping `prev_counts` entries.
    derive_gen: u64,
    /// Memoized joins per level (index `k - 1` holds the join of the
    /// frequent `k`-sets), keyed by exact input equality in row ids.
    join_cache: Vec<JoinLevel>,
}

impl IncrementalVerticalIndex {
    /// An empty index for `period`, optionally windowed to the most
    /// recent `window` segments (appends at capacity evict the oldest).
    ///
    /// # Panics
    ///
    /// If `period` is 0 or `window` is `Some(0)`.
    pub fn new(period: usize, window: Option<usize>) -> Self {
        assert!(period > 0, "period must be positive");
        if let Some(c) = window {
            assert!(c > 0, "window capacity must be positive");
        }
        let words_per_row = window.map_or(1, |c| c.div_ceil(64));
        IncrementalVerticalIndex {
            period,
            capacity: window,
            words_per_row,
            rows: Vec::new(),
            row_counts: Vec::new(),
            letter_ids: HashMap::new(),
            letters: Vec::new(),
            appended: 0,
            evicted: 0,
            dirty: BTreeMap::new(),
            dirty_rows: Vec::new(),
            prev_counts: HashMap::new(),
            derive_gen: 0,
            join_cache: Vec::new(),
        }
    }

    /// Builds an index over every whole segment of `view` in one bulk
    /// pass (with a `window`, only the last `window` segments are placed;
    /// the earlier ones count as appended and evicted).
    pub fn from_view(view: EncodedSeriesView<'_>, period: usize, window: Option<usize>) -> Self {
        let mut index = IncrementalVerticalIndex::new(period, window);
        index.append_segments_from_view(view, 0..view.len() / period);
        index
    }

    /// The mining period (instants per segment).
    pub fn period(&self) -> usize {
        self.period
    }

    /// The window capacity in segments, if bounded.
    pub fn window(&self) -> Option<usize> {
        self.capacity
    }

    /// Segments currently in the window.
    pub fn live_segments(&self) -> usize {
        self.appended - self.evicted
    }

    /// Segments ever appended — the global index of the next append.
    pub fn appended_segments(&self) -> usize {
        self.appended
    }

    /// Segments ever evicted — the global index of the oldest live one.
    pub fn evicted_segments(&self) -> usize {
        self.evicted
    }

    /// Interned letters (every `(offset, feature)` ever seen in-window).
    pub fn n_letters(&self) -> usize {
        self.letters.len()
    }

    /// 64-segment column words mutated since the last derive.
    pub fn dirty_words(&self) -> usize {
        self.dirty.len()
    }

    /// Bytes held by the live bitmap matrix.
    pub fn bitmap_bytes(&self) -> usize {
        self.rows.len() * 8
    }

    /// The maintained F1 count of one letter (0 if never seen).
    pub fn letter_count(&self, offset: usize, feature: FeatureId) -> u64 {
        self.letter_ids
            .get(&(offset as u32, feature.raw()))
            .map_or(0, |&r| self.row_counts[r])
    }

    /// The largest maintained F1 count among letters whose bitmaps changed
    /// since the last derive (`None` when the index is clean). While this
    /// stays *below* `min_count`, no pattern touching a dirty letter can be
    /// frequent — which is what lets a result cache keep entries across an
    /// append instead of dropping them (the frequent set provably did not
    /// move as long as `min_count` itself did not).
    pub fn max_dirty_letter_count(&self) -> Option<u64> {
        self.dirty_rows
            .iter()
            .zip(&self.row_counts)
            .filter(|&(&dirty, _)| dirty)
            .map(|(_, &count)| count)
            .max()
    }

    /// Whether `(offset, feature)` changed since the last derive.
    pub fn letter_dirty(&self, offset: usize, feature: FeatureId) -> bool {
        self.letter_ids
            .get(&(offset as u32, feature.raw()))
            .is_some_and(|&r| self.dirty_rows[r])
    }

    /// The ring slot of global segment `j`.
    fn slot(&self, j: usize) -> usize {
        match self.capacity {
            Some(c) => j % c,
            None => j,
        }
    }

    /// Lays the matrix out for every interned letter and, unbounded, for
    /// column `slot`. `words_per_row` doubles: one re-layout however far
    /// the slot jumps, to the same width one-segment-at-a-time growth
    /// reaches. A new layout starts from zeroed pages, not a fill pass.
    fn fit_layout(&mut self, slot: usize) {
        let (old, n) = (self.words_per_row, self.letters.len());
        let mut wpr = old;
        while wpr <= slot / 64 {
            wpr *= 2;
        }
        if wpr == old {
            self.rows.resize(n * wpr, 0);
            return;
        }
        let mut rows = vec![0u64; n * wpr];
        for (new_row, old_row) in rows.chunks_exact_mut(wpr).zip(self.rows.chunks_exact(old)) {
            new_row[..old].copy_from_slice(old_row);
        }
        self.rows = rows;
        self.words_per_row = wpr;
    }

    /// Snapshots column word `w` (all rows) before its first mutation
    /// since the last derive. A word that holds no live segment is all
    /// zeros, and an untouched word still holds exactly the segments it
    /// held at the last derive, so such a word (like every word before
    /// the first derive, when no snapshot is ever read) gets an empty
    /// snapshot instead of a strided read of every row.
    fn touch(&mut self, w: usize) {
        if self.dirty.contains_key(&w) {
            return;
        }
        let snap = if self.derive_gen == 0 || !self.word_holds_live_segment(w) {
            Vec::new()
        } else {
            let wpr = self.words_per_row;
            (0..self.letters.len())
                .map(|r| self.rows[r * wpr + w])
                .collect()
        };
        self.dirty.insert(w, snap);
    }

    /// Whether any live segment's slot falls in column word `w`.
    fn word_holds_live_segment(&self, w: usize) -> bool {
        let (lo, hi) = (w * 64, w * 64 + 64);
        let overlaps = |a: usize, b: usize| a.max(lo) < b.min(hi);
        let start = self.slot(self.evicted);
        let end = start + self.live_segments();
        match self.capacity {
            None => overlaps(start, end),
            Some(c) => overlaps(start, end.min(c)) || (end > c && overlaps(0, end - c)),
        }
    }

    /// Interns `(offset, feature)` to a stable row id on first sight.
    /// The caller grows `rows` to cover the new row.
    fn intern(&mut self, offset: usize, feature: FeatureId) -> usize {
        let key = (offset as u32, feature.raw());
        if let Some(&r) = self.letter_ids.get(&key) {
            return r;
        }
        let r = self.letters.len();
        self.letter_ids.insert(key, r);
        self.letters.push((offset, feature));
        self.row_counts.push(0);
        self.dirty_rows.push(false);
        r
    }

    /// Appends one whole segment given as per-instant feature lists (for
    /// sources that are not bitmap views; views go through
    /// [`append_segments_from_view`](Self::append_segments_from_view)):
    /// one bit set per letter present, one F1 count bump each. At window
    /// capacity the oldest segment is evicted first. Cost is proportional
    /// to the features in the segment, not to the window.
    ///
    /// # Panics
    ///
    /// If `instants` does not yield exactly `period` instants.
    pub fn append_segment<I, F>(&mut self, instants: I)
    where
        I: IntoIterator<Item = F>,
        F: AsRef<[FeatureId]>,
    {
        if let Some(c) = self.capacity {
            if self.live_segments() == c {
                self.evict_oldest();
            }
        }
        let slot = self.slot(self.appended);
        self.fit_layout(slot);
        let w = slot / 64;
        let bit = 1u64 << (slot % 64);
        self.touch(w);
        let mut seen = 0usize;
        for (offset, instant) in instants.into_iter().enumerate() {
            seen += 1;
            for &f in instant.as_ref() {
                let r = self.intern(offset, f);
                self.rows.resize(self.letters.len() * self.words_per_row, 0);
                let cell = &mut self.rows[r * self.words_per_row + w];
                if *cell & bit == 0 {
                    *cell |= bit;
                    self.row_counts[r] += 1;
                    self.dirty_rows[r] = true;
                }
            }
        }
        assert_eq!(
            seen, self.period,
            "append_segment requires exactly one whole segment of {} instants",
            self.period
        );
        self.appended += 1;
        ppm_observe::counter("incremental.appends", 1);
    }

    /// Appends whole segment `segment` (0-based over `view`) of an
    /// encoded series view: the one-segment case of
    /// [`append_segments_from_view`](Self::append_segments_from_view).
    ///
    /// # Panics
    ///
    /// If the view does not contain that whole segment.
    pub fn append_from_view(&mut self, view: EncodedSeriesView<'_>, segment: usize) {
        self.append_segments_from_view(view, segment..segment + 1);
    }

    /// Appends whole segments `segments` (0-based over `view`) in one
    /// transposing pass, leaving the index as appending them one at a
    /// time would, up to row-id order.
    ///
    /// With a window, segments the run itself would push out again are
    /// never placed: they count as appended and evicted, and letters seen
    /// only in them are not interned. One OR over the run finds its
    /// letters; a letter's rank among them (a popcount over that presence
    /// bitmap, not a hash lookup) indexes its accumulator. The placed
    /// segments then go in groups of up to eight column words (512
    /// segments): the group's bits are scattered into the accumulators,
    /// and each letter writes its row's run of column words once, bumps
    /// its F1 count by popcount and is marked dirty once. The unbounded
    /// layout grows at most once. Emits `incremental.appends` once, with
    /// the segment count.
    ///
    /// # Panics
    ///
    /// If the view does not contain every segment of the range.
    pub fn append_segments_from_view(
        &mut self,
        view: EncodedSeriesView<'_>,
        segments: Range<usize>,
    ) {
        let period = self.period;
        assert!(
            segments.end * period <= view.len(),
            "segments {segments:?} not wholly contained in a view of {} instants",
            view.len()
        );
        let n = segments.len();
        if n == 0 {
            return;
        }
        let mut first = segments.start;
        if let Some(c) = self.capacity {
            // Past capacity the run evicts every live segment and then
            // its own first `n - c` segments: skip those outright.
            let skip = n.saturating_sub(c);
            while self.live_segments() + (n - skip) > c {
                self.evict_oldest();
            }
            self.appended += skip;
            self.evicted += skip;
            first += skip;
        }

        // The letters the run holds: per instant word of a segment, the OR
        // over the run. They are interned in `(offset, feature)` order;
        // `rows_from[i]` indexes the first of word `i`'s in `letter_rows`.
        let wpi = view.words_per_instant();
        let seg_words = period * wpi;
        let count = segments.end - first;
        let run = &view.words()[first * seg_words..segments.end * seg_words];
        let segment_words = |k: usize| &run[k * seg_words..(k + 1) * seg_words];
        let mut present = vec![0u64; seg_words];
        for k in 0..count {
            for (p, &x) in present.iter_mut().zip(segment_words(k)) {
                *p |= x;
            }
        }
        let mut rows_from = Vec::with_capacity(seg_words);
        let mut letter_rows = Vec::new();
        for (i, &word) in present.iter().enumerate() {
            rows_from.push(letter_rows.len());
            let mut x = word;
            while x != 0 {
                let feature = FeatureId::from_raw(((i % wpi) * 64) as u32 + x.trailing_zeros());
                letter_rows.push(self.intern(i / wpi, feature));
                x &= x - 1;
            }
        }
        self.fit_layout(self.slot(self.appended + count - 1));

        let wpr = self.words_per_row;
        let ring = self.capacity.unwrap_or(usize::MAX);
        let mut acc = vec![0u64; letter_rows.len() * GROUP_WORDS];
        let mut placed = 0;
        while placed < count {
            // One group: up to GROUP_WORDS column words, the ring's end,
            // or the run's end.
            let slot = self.slot(self.appended);
            let w0 = slot / 64;
            let end = ((w0 + GROUP_WORDS) * 64)
                .min(ring)
                .min(slot + count - placed);
            let (len, w1) = (end - slot, end.div_ceil(64));
            for w in w0..w1 {
                self.touch(w);
            }
            for k in 0..len {
                let s = slot % 64 + k;
                let (lane_word, bit) = (s / 64, 1u64 << (s % 64));
                let segment = segment_words(placed + k);
                for ((&word, &mask), &from) in segment.iter().zip(&present).zip(&rows_from) {
                    let mut x = word;
                    while x != 0 {
                        let below = mask & ((1u64 << x.trailing_zeros()) - 1);
                        acc[(from + below.count_ones() as usize) * GROUP_WORDS + lane_word] |= bit;
                        x &= x - 1;
                    }
                }
            }
            let nw = w1 - w0;
            for (lane, &r) in acc.chunks_exact_mut(GROUP_WORDS).zip(&letter_rows) {
                let cells = &mut self.rows[r * wpr + w0..r * wpr + w1];
                let mut added = 0;
                for (cell, x) in cells.iter_mut().zip(&mut lane[..nw]) {
                    debug_assert_eq!(*cell & *x, 0, "placing into an occupied slot");
                    *cell |= *x;
                    added += u64::from(x.count_ones());
                    *x = 0;
                }
                if added > 0 {
                    self.row_counts[r] += added;
                    self.dirty_rows[r] = true;
                }
            }
            placed += len;
            self.appended += len;
        }
        ppm_observe::counter("incremental.appends", n as u64);
    }

    /// Evicts the oldest live segment: clears its column and decrements
    /// the F1 counts of the letters it contained. Returns `false` when
    /// the window is already empty. Evicted letters stay interned (their
    /// rows may refill); they simply drop out of the alphabet once their
    /// count falls below the threshold.
    pub fn evict_oldest(&mut self) -> bool {
        if self.live_segments() == 0 {
            return false;
        }
        let slot = self.slot(self.evicted);
        let w = slot / 64;
        let bit = 1u64 << (slot % 64);
        self.touch(w);
        let wpr = self.words_per_row;
        for r in 0..self.letters.len() {
            let cell = &mut self.rows[r * wpr + w];
            if *cell & bit != 0 {
                *cell &= !bit;
                self.row_counts[r] -= 1;
                self.dirty_rows[r] = true;
            }
        }
        self.evicted += 1;
        true
    }

    /// Re-mines the current window, recounting only what the appends and
    /// evictions since the last derive could have changed. The result —
    /// frequent set, counts, alphabet, parameters, *and* stats — is
    /// bit-identical to a cold [`super::mine_vertical_view`] of the same
    /// window at the same `config`.
    ///
    /// The confidence (and hence `min_count`) may differ from the
    /// previous derive's: carried counts are exact counts, not
    /// threshold-relative, so classification stays correct — a candidate
    /// generated now but never counted before simply pays a full count.
    pub fn rederive_dirty(&mut self, config: &MineConfig) -> Result<MiningResult> {
        let _span = ppm_observe::span("incremental.rederive");
        let started = Instant::now();
        let m = self.live_segments();
        if m == 0 {
            return Err(Error::InvalidPeriod {
                period: self.period,
                series_len: 0,
            });
        }
        let min_count = config.min_count(m);
        ppm_observe::gauge("vertical.dirty_words", self.dirty.len() as u64);

        // Scan-1 equivalent, straight from the maintained F1 counts.
        // `Alphabet::new` canonicalizes letter order, matching what a cold
        // scan over the same window builds.
        let alphabet = Alphabet::new(
            self.period,
            self.letters
                .iter()
                .enumerate()
                .filter(|&(r, _)| self.row_counts[r] >= min_count)
                .map(|(_, &(o, f))| (o, f)),
        );
        let n_letters = alphabet.len();
        let mut letter_counts = Vec::with_capacity(n_letters);
        let mut rowmap = Vec::with_capacity(n_letters);
        for i in 0..n_letters {
            let (o, f) = alphabet.letter(i);
            let row = self.letter_ids[&(o as u32, f.raw())];
            letter_counts.push(self.row_counts[row]);
            rowmap.push(row as u32);
        }

        // Mirrors `derive_frequent_batched` exactly — candidate order,
        // stats accounting, threshold test — so the result (including
        // stats, with the two logical scans amortized into maintenance)
        // matches the cold vertical mine field for field.
        let mut stats = MiningStats {
            series_scans: 2,
            max_level: 1,
            ..Default::default()
        };
        let mut frequent: Vec<FrequentPattern> = letter_counts
            .iter()
            .enumerate()
            .map(|(idx, &count)| FrequentPattern {
                letters: LetterSet::from_indices(n_letters, [idx]),
                count,
            })
            .collect();

        let resolved = config.kernel().resolve();
        let mut and_ops = 0u64;
        let mut tally = DeriveTally::default();
        self.derive_gen += 1;
        let gen = self.derive_gen;

        // Row id → letter index for this derive's alphabet. The whole
        // level loop runs in row ids — stable across derives, which is
        // what lets the join cache and the count map key directly off
        // candidate slices — and maps back to letter indices only when a
        // frequent pattern is materialized.
        let mut row_to_letter = vec![u32::MAX; self.letters.len()];
        for (i, &r) in rowmap.iter().enumerate() {
            row_to_letter[r as usize] = i as u32;
        }

        let mut level_flat: Vec<u32> = rowmap.clone();
        let mut k = 1;
        while !level_flat.is_empty() {
            let candidates = self.joined_level(&level_flat, k);
            let width = k + 1;
            let n_cand = candidates.len() / width;
            stats.candidates_generated += n_cand as u64;
            if n_cand == 0 {
                break;
            }
            k = width;
            stats.max_level = stats.max_level.max(k);
            stats.subset_tests += n_cand as u64;
            let counts = self.count_level_incremental(
                &candidates,
                width,
                resolved,
                gen,
                &mut and_ops,
                &mut tally,
            );
            let mut next_flat = Vec::with_capacity(candidates.len());
            for (cand, &count) in candidates.chunks_exact(width).zip(&counts) {
                if count >= min_count {
                    frequent.push(FrequentPattern {
                        letters: LetterSet::from_indices(
                            n_letters,
                            cand.iter().map(|&r| row_to_letter[r as usize] as usize),
                        ),
                        count,
                    });
                    next_flat.extend_from_slice(cand);
                }
            }
            level_flat = next_flat;
        }

        // This derive becomes the new baseline: the window is clean and
        // every candidate just counted is carry- or delta-eligible next
        // time. Entries not restamped this derive fell out of the
        // candidate lattice; purging them keeps a later reappearance
        // from carrying a count that missed intervening mutations.
        self.prev_counts.retain(|_, e| e.gen == gen);
        self.dirty.clear();
        self.dirty_rows.fill(false);

        ppm_observe::gauge("incremental.carried", tally.carried);
        ppm_observe::gauge("incremental.delta_counts", tally.delta);
        ppm_observe::gauge("incremental.full_counts", tally.full);
        ppm_observe::gauge("incremental.and_ops", and_ops);
        ppm_observe::gauge(
            "incremental.rederive_us",
            started.elapsed().as_micros() as u64,
        );

        let mut result = MiningResult {
            period: self.period,
            segment_count: m,
            min_confidence: config.min_confidence(),
            min_count,
            alphabet,
            frequent,
            stats,
        };
        result.sort();
        Ok(result)
    }

    /// The Apriori join of one frequent level (flat, chunked by `k`),
    /// memoized across derives. A hit — the exact same frequent `k`-sets
    /// as some earlier derive — returns the cached candidates without
    /// re-running the join's subset pruning; in the steady state of
    /// append-then-rederive the frequent set barely moves and every
    /// level hits.
    fn joined_level(&mut self, level: &[u32], k: usize) -> Vec<u32> {
        if let Some(c) = self.join_cache.get(k - 1) {
            if c.input.as_slice() == level {
                return c.output.clone();
            }
        }
        let out = join_flat(level, k);
        if self.join_cache.len() < k {
            self.join_cache.resize_with(k, JoinLevel::default);
        }
        let entry = &mut self.join_cache[k - 1];
        entry.input.clear();
        entry.input.extend_from_slice(level);
        entry.output.clear();
        entry.output.extend_from_slice(&out);
        out
    }

    /// Counts one candidate level (flat, chunked by `width`, in row
    /// ids), classifying each candidate as carried (all letters clean
    /// since the last derive), delta-recounted (known previous count,
    /// dirty letters — recount only the dirty words), or fully counted
    /// (never counted before).
    fn count_level_incremental(
        &mut self,
        candidates: &[u32],
        width: usize,
        kernel: ResolvedKernel,
        gen: u64,
        and_ops: &mut u64,
        tally: &mut DeriveTally,
    ) -> Vec<u64> {
        let wpr = self.words_per_row;
        let n_cand = candidates.len() / width;
        let mut counts = vec![0u64; n_cand];
        let mut pending_delta = Vec::new();
        let mut pending_full = Vec::new();
        {
            // Split borrows: the count map updates in place while the
            // dirty bookkeeping classifies.
            let dirty = &self.dirty;
            let dirty_rows = &self.dirty_rows;
            let prev_counts = &mut self.prev_counts;
            for (i, cand) in candidates.chunks_exact(width).enumerate() {
                match prev_counts.get_mut(cand) {
                    Some(e)
                        if e.gen + 1 == gen && cand.iter().all(|&r| !dirty_rows[r as usize]) =>
                    {
                        e.gen = gen;
                        counts[i] = e.count;
                        tally.carried += 1;
                    }
                    Some(e) if e.gen + 1 == gen => {
                        // Disjoint-range decomposition: the previous
                        // count minus its dirty-word portion (from the
                        // snapshots) plus the live dirty-word portion.
                        counts[i] = e.count - snapshot_count_over(dirty, cand);
                        pending_delta.push(i);
                        tally.delta += 1;
                    }
                    _ => {
                        pending_full.push(i);
                        tally.full += 1;
                    }
                }
            }
        }

        // Live counts over just the dirty words. Single-word runs — the
        // common shape after one appended or evicted segment — AND the
        // column words directly; longer runs go through the blocked wide
        // kernel so the prefix cache reuses sibling candidates' shared
        // ancestry on each block.
        if !pending_delta.is_empty() {
            let runs = self.dirty_runs();
            let needs_kernel = runs.iter().any(|&(lo, hi)| hi - lo > 1);
            let bases: Vec<Vec<usize>> = if needs_kernel {
                pending_delta
                    .iter()
                    .map(|&i| {
                        candidates[i * width..(i + 1) * width]
                            .iter()
                            .map(|&r| r as usize * wpr)
                            .collect()
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let mut cache = PrefixCache::default();
            for (run_start, run_end) in runs {
                if run_end - run_start == 1 {
                    for &i in &pending_delta {
                        let mut acc = u64::MAX;
                        for &r in &candidates[i * width..(i + 1) * width] {
                            acc &= self.rows[r as usize * wpr + run_start];
                            if acc == 0 {
                                break;
                            }
                        }
                        *and_ops += (width - 1) as u64;
                        counts[i] += u64::from(acc.count_ones());
                    }
                    continue;
                }
                let mut block = run_start;
                while block < run_end {
                    let hi = (block + BLOCK_WORDS).min(run_end);
                    for (d, &i) in pending_delta.iter().enumerate() {
                        counts[i] += count_dispatch_cached(
                            kernel,
                            &self.rows,
                            None,
                            &bases[d],
                            block..hi,
                            and_ops,
                            &mut cache,
                        );
                    }
                    block = hi;
                }
            }
        }
        if !pending_full.is_empty() {
            let bases: Vec<Vec<usize>> = pending_full
                .iter()
                .map(|&i| {
                    candidates[i * width..(i + 1) * width]
                        .iter()
                        .map(|&r| r as usize * wpr)
                        .collect()
                })
                .collect();
            let mut cache = PrefixCache::default();
            let mut block = 0;
            while block < wpr {
                let hi = (block + BLOCK_WORDS).min(wpr);
                for (f, &i) in pending_full.iter().enumerate() {
                    counts[i] += count_dispatch_cached(
                        kernel,
                        &self.rows,
                        None,
                        &bases[f],
                        block..hi,
                        and_ops,
                        &mut cache,
                    );
                }
                block = hi;
            }
        }

        // Recounted candidates restamp in place; only genuinely new keys
        // allocate.
        for &i in pending_delta.iter().chain(pending_full.iter()) {
            let key = &candidates[i * width..(i + 1) * width];
            match self.prev_counts.get_mut(key) {
                Some(e) => {
                    e.count = counts[i];
                    e.gen = gen;
                }
                None => {
                    self.prev_counts.insert(
                        key.into(),
                        PrevCount {
                            count: counts[i],
                            gen,
                        },
                    );
                }
            }
        }
        counts
    }

    /// Maximal runs of consecutive dirty words, in ascending order.
    fn dirty_runs(&self) -> Vec<(usize, usize)> {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for &w in self.dirty.keys() {
            match runs.last_mut() {
                Some(run) if run.1 == w => run.1 = w + 1,
                _ => runs.push((w, w + 1)),
            }
        }
        runs
    }
}

/// The candidate's count over the dirty words *as of the last derive*,
/// from the per-word column snapshots. Rows interned after a snapshot
/// read as 0 — their value at the last derive.
fn snapshot_count_over(dirty: &BTreeMap<usize, Vec<u64>>, rows: &[u32]) -> u64 {
    let mut total = 0u64;
    for snap in dirty.values() {
        let mut acc = u64::MAX;
        for &r in rows {
            acc &= snap.get(r as usize).copied().unwrap_or(0);
            if acc == 0 {
                break;
            }
        }
        total += u64::from(acc.count_ones());
    }
    total
}

/// The Apriori join over a flat level of `k`-sets: every pair sharing a
/// `k - 1` prefix joins, pruned unless all `k`-subsets of the joined
/// candidate are in the level. Same candidate set (and order) as
/// [`crate::apriori::join_candidates`] on the unflattened level — the
/// flat layout exists so levels compare and copy as single slices.
fn join_flat(level: &[u32], k: usize) -> Vec<u32> {
    let sets: Vec<&[u32]> = level.chunks_exact(k).collect();
    let lookup: HashSet<&[u32]> = sets.iter().copied().collect();
    let mut out = Vec::new();
    let mut scratch = Vec::with_capacity(k);
    for i in 0..sets.len() {
        for j in i + 1..sets.len() {
            let (a, b) = (sets[i], sets[j]);
            if a[..k - 1] != b[..k - 1] {
                break; // sorted order: no further j shares the prefix
            }
            // All k-subsets of `a + b[k-1]` must be in the level; the two
            // missing the last and second-to-last letters are b and a.
            let ok = (0..k - 1).all(|drop| {
                scratch.clear();
                scratch.extend(
                    a.iter()
                        .enumerate()
                        .filter(|&(p, _)| p != drop)
                        .map(|(_, &l)| l),
                );
                scratch.push(b[k - 1]);
                lookup.contains(scratch.as_slice())
            });
            if ok {
                out.extend_from_slice(a);
                out.push(b[k - 1]);
            }
        }
    }
    out
}

/// One-shot incremental mine of every whole segment in `view`: one bulk
/// build (the same path a live store's catch-up takes) and one derive.
pub fn mine_incremental_view(
    view: EncodedSeriesView<'_>,
    period: usize,
    config: &MineConfig,
) -> Result<MiningResult> {
    if period == 0 || period > view.len() {
        return Err(Error::InvalidPeriod {
            period,
            series_len: view.len(),
        });
    }
    let mut index = IncrementalVerticalIndex::from_view(view, period, None);
    index.rederive_dirty(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertical::mine_vertical_view;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    /// Deterministic LCG feature stream: `n` instants over `features`
    /// features, ~half present each, encoded as packed words.
    fn lcg_words(n: usize, features: u32, seed: u64) -> (usize, Vec<u64>) {
        let width = features as usize;
        let wpi = width.div_ceil(64);
        let mut words = vec![0u64; n * wpi];
        let mut x: u64 = seed;
        for (t, row) in words.chunks_mut(wpi).enumerate() {
            for f in 0..features {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (x >> 33).is_multiple_of(2) {
                    row[f as usize / 64] |= 1u64 << (f % 64);
                }
            }
            let _ = t;
        }
        (width, words)
    }

    /// Cold-mines the window `[evicted, evicted + live)` segments of the
    /// packed series and asserts the incremental result is identical —
    /// frequent set, counts, alphabet, parameters, and stats.
    fn assert_matches_cold(
        index: &mut IncrementalVerticalIndex,
        width: usize,
        wpi: usize,
        words: &[u64],
        config: &MineConfig,
    ) {
        let period = index.period();
        let a = index.evicted_segments() * period;
        let b = index.appended_segments() * period;
        let window = &words[a * wpi..b * wpi];
        let view = EncodedSeriesView::new(width, b - a, window);
        let cold = mine_vertical_view(view, period, config);
        let incremental = index.rederive_dirty(config);
        match (cold, incremental) {
            (Ok(cold), Ok(incremental)) => {
                assert_eq!(incremental.frequent, cold.frequent, "frequent sets diverge");
                assert_eq!(incremental.alphabet, cold.alphabet);
                assert_eq!(incremental.segment_count, cold.segment_count);
                assert_eq!(incremental.min_count, cold.min_count);
                assert_eq!(incremental.stats, cold.stats);
            }
            (Err(_), Err(_)) => {}
            (cold, incremental) => {
                panic!("cold {cold:?} and incremental {incremental:?} disagree on fallibility")
            }
        }
    }

    #[test]
    fn appends_match_cold_mine_at_every_state() {
        let period = 5;
        let (width, words) = lcg_words(40 * period, 4, 7);
        let wpi = width.div_ceil(64);
        let view = EncodedSeriesView::new(width, 40 * period, &words);
        let config = MineConfig::new(0.4).unwrap();
        let mut index = IncrementalVerticalIndex::new(period, None);
        for segment in 0..40 {
            index.append_from_view(view, segment);
            assert_matches_cold(&mut index, width, wpi, &words, &config);
        }
    }

    #[test]
    fn one_shot_matches_cold_mine() {
        let period = 7;
        let (width, words) = lcg_words(50 * period + 3, 5, 21);
        let view = EncodedSeriesView::new(width, 50 * period + 3, &words);
        let config = MineConfig::new(0.5).unwrap();
        let cold = mine_vertical_view(view, period, &config).unwrap();
        let incremental = mine_incremental_view(view, period, &config).unwrap();
        assert_eq!(incremental.frequent, cold.frequent);
        assert_eq!(incremental.stats, cold.stats);
    }

    #[test]
    fn windowed_ring_matches_cold_mine_across_eviction() {
        // Window of 64 segments: appending segment 64 wraps the ring at
        // exactly a word boundary — the regression shape for slot math.
        let period = 4;
        let segments = 200;
        let (width, words) = lcg_words(segments * period, 3, 1234);
        let wpi = width.div_ceil(64);
        let view = EncodedSeriesView::new(width, segments * period, &words);
        let config = MineConfig::new(0.3).unwrap();
        let mut index = IncrementalVerticalIndex::new(period, Some(64));
        for segment in 0..segments {
            index.append_from_view(view, segment);
            if segment % 13 == 0 || (60..=70).contains(&segment) {
                assert_matches_cold(&mut index, width, wpi, &words, &config);
            }
        }
        assert_eq!(index.live_segments(), 64);
        assert_eq!(index.evicted_segments(), segments - 64);
    }

    #[test]
    fn explicit_eviction_matches_cold_mine() {
        let period = 3;
        let segments = 30;
        let (width, words) = lcg_words(segments * period, 4, 99);
        let wpi = width.div_ceil(64);
        let view = EncodedSeriesView::new(width, segments * period, &words);
        let config = MineConfig::new(0.25).unwrap();
        let mut index = IncrementalVerticalIndex::from_view(view, period, None);
        for _ in 0..segments {
            assert_matches_cold(&mut index, width, wpi, &words, &config);
            index.evict_oldest();
        }
        assert!(!index.evict_oldest(), "empty window has nothing to evict");
        assert!(
            index.rederive_dirty(&config).is_err(),
            "empty window mines like period > len"
        );
    }

    #[test]
    fn randomized_append_evict_interleaving_matches_cold() {
        let period = 6;
        let segments = 120;
        let (width, words) = lcg_words(segments * period, 4, 5005);
        let wpi = width.div_ceil(64);
        let view = EncodedSeriesView::new(width, segments * period, &words);
        let config = MineConfig::new(0.35).unwrap();
        let mut index = IncrementalVerticalIndex::new(period, None);
        let mut next = 0usize;
        let mut x: u64 = 424242;
        while next < segments {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            match x >> 61 {
                0..=3 => {
                    index.append_from_view(view, next);
                    next += 1;
                }
                4 | 5 => {
                    index.evict_oldest();
                }
                _ => assert_matches_cold(&mut index, width, wpi, &words, &config),
            }
        }
        assert_matches_cold(&mut index, width, wpi, &words, &config);
    }

    #[test]
    fn confidence_changes_between_rederives_stay_exact() {
        // min_count moves between derives, so carried counts are reused
        // under different thresholds and newly generated candidates pay
        // full counts — all states must still match a cold mine.
        let period = 5;
        let segments = 60;
        let (width, words) = lcg_words(segments * period, 4, 31337);
        let wpi = width.div_ceil(64);
        let view = EncodedSeriesView::new(width, segments * period, &words);
        let confs = [0.6, 0.2, 0.45, 0.2, 0.9, 0.3];
        let mut index = IncrementalVerticalIndex::new(period, None);
        for segment in 0..segments {
            index.append_from_view(view, segment);
            if segment % 7 == 0 {
                let config = MineConfig::new(confs[(segment / 7) % confs.len()]).unwrap();
                assert_matches_cold(&mut index, width, wpi, &words, &config);
            }
        }
    }

    #[test]
    fn empty_segments_and_threshold_crossers_match_cold() {
        // A letter that sits just below the threshold, then crosses it on
        // append, plus all-empty segments in between.
        let period = 2;
        let width = 2;
        let wpi = 1usize;
        let mut words: Vec<u64> = Vec::new();
        // 10 segments: 'a' at offset 0 in all, 'b' at offset 1 in 4.
        for j in 0..10 {
            words.push(0b01); // offset 0: feature 0
            words.push(if j < 4 { 0b10 } else { 0b00 });
        }
        // 4 empty segments.
        for _ in 0..4 {
            words.push(0);
            words.push(0);
        }
        let config = MineConfig::new(0.5).unwrap();
        let mut index = IncrementalVerticalIndex::new(period, None);
        for segment in 0..words.len() / (period * wpi) {
            let n = words.len();
            let view = EncodedSeriesView::new(width, n, &words);
            index.append_from_view(view, segment);
            assert_matches_cold(&mut index, width, wpi, &words, &config);
        }
        // Appending 10 more 'b'-bearing segments pushes 'b' back over the
        // threshold (it crossed below when the empties diluted m).
        for _ in 0..10 {
            index.append_segment([vec![fid(0)], vec![fid(1)]]);
            words.push(0b01);
            words.push(0b10);
            assert_matches_cold(&mut index, width, wpi, &words, &config);
        }
        assert!(index.letter_count(1, fid(1)) >= config.min_count(index.live_segments()));
    }

    #[test]
    fn window_widths_straddling_word_boundaries_match_cold() {
        // Ring capacities of 63/64/65 segments put the wrap-around slot
        // just below, exactly at, and just past a word boundary; segment
        // counts run past 2× capacity so every slot is reused.
        for capacity in [63usize, 64, 65] {
            let period = 3;
            let segments = capacity * 2 + 3;
            let (width, words) = lcg_words(segments * period, 3, 1000 + capacity as u64);
            let wpi = width.div_ceil(64);
            let view = EncodedSeriesView::new(width, segments * period, &words);
            let config = MineConfig::new(0.4).unwrap();
            let mut index = IncrementalVerticalIndex::new(period, Some(capacity));
            for segment in 0..segments {
                index.append_from_view(view, segment);
                let near_boundary =
                    (62..=66).contains(&segment) || segment.abs_diff(capacity * 2) <= 1;
                if near_boundary || segment % 29 == 0 {
                    assert_matches_cold(&mut index, width, wpi, &words, &config);
                }
            }
        }
    }

    #[test]
    fn kernels_agree_on_the_incremental_path() {
        use crate::vertical::Kernel;
        let period = 4;
        let segments = 90;
        let (width, words) = lcg_words(segments * period, 6, 777);
        let view = EncodedSeriesView::new(width, segments * period, &words);
        let mut scalar_index = IncrementalVerticalIndex::new(period, None);
        let mut wide_index = IncrementalVerticalIndex::new(period, None);
        let scalar = MineConfig::new(0.3).unwrap().with_kernel(Kernel::Scalar);
        let wide = MineConfig::new(0.3).unwrap().with_kernel(Kernel::Wide);
        for segment in 0..segments {
            scalar_index.append_from_view(view, segment);
            wide_index.append_from_view(view, segment);
            if segment % 17 == 0 || segment == segments - 1 {
                let a = scalar_index.rederive_dirty(&scalar).unwrap();
                let b = wide_index.rederive_dirty(&wide).unwrap();
                assert_eq!(a.frequent, b.frequent);
            }
        }
    }

    #[test]
    fn rederive_is_idempotent_and_cheap_when_clean() {
        let period = 5;
        let (width, words) = lcg_words(30 * period, 4, 11);
        let view = EncodedSeriesView::new(width, 30 * period, &words);
        let config = MineConfig::new(0.4).unwrap();
        let mut index = IncrementalVerticalIndex::from_view(view, period, None);
        let first = index.rederive_dirty(&config).unwrap();
        assert_eq!(index.dirty_words(), 0);
        let second = index.rederive_dirty(&config).unwrap();
        assert_eq!(first.frequent, second.frequent);
        assert_eq!(first.stats, second.stats);
    }
}
