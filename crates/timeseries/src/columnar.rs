//! The binary columnar series store (`.ppmc`): an on-disk layout that *is*
//! the [`EncodedSeries`] layout.
//!
//! Every text or block-binary mine re-parses its input, rebuilds the CSR
//! series, and re-packs the per-instant bitmaps before any counting starts.
//! The columnar store skips all of that: the file body is the encoded
//! cache's row-major `u64` words verbatim, so opening a `.ppmc` is one read
//! plus one pass converting the byte section into a single word vector —
//! zero per-row allocation — and the result is borrowed straight out as an
//! [`EncodedSeriesView`] that the vertical engine, the shared multi-period
//! scan, and the audit oracle consume directly.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset 0   magic            [u8; 4] = b"PPMC"
//! offset 4   version          u32     = 1
//! offset 8   width            u64     feature-id universe (max id + 1)
//! offset 16  words_per_instant u64    must equal ⌈width/64⌉
//! offset 24  n_names          u32     catalog size
//! …          names            n_names × (u32 len, bytes)
//! …          words            n_instants × words_per_instant × u64, row-major
//! EOF−16     n_instants       u64     trailer, so appends are O(new rows)
//! EOF−8      checksum         u64     FNV-1a over bytes [0, EOF−8)
//! ```
//!
//! The trailer placement is what makes [`ColumnarAppender`] cheap to
//! *assemble*: the FNV state — a streaming hash — resumes from where the
//! prefix left off, so hashing `k` appended rows costs `O(k)`. Publication
//! is crash-safe rather than in-place: [`ColumnarAppender::finish`] writes
//! the complete new store to a same-directory temp file, fsyncs it, renames
//! it over the original, and fsyncs the parent directory — so a crash at
//! any byte leaves either the prior store or the fully-appended store on
//! disk, never a torn hybrid (the same publish discipline as the sweep
//! checkpoint).
//!
//! Corruption is rejected with a named byte offset (`Error::Corrupt`), the
//! same policy as the checkpoint and stream-storage formats: a damaged
//! header, a flipped bitmap word, or a truncated trailer must never
//! mis-mine.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::catalog::{FeatureCatalog, FeatureId};
use crate::encoded::{EncodedSeries, EncodedSeriesView};
use crate::error::{Error, Result};
use crate::series::{FeatureSeries, SeriesBuilder};
use crate::storage::binary::Fnv64;

const MAGIC: &[u8; 4] = b"PPMC";
const VERSION: u32 = 1;
/// Fixed header bytes before the catalog names.
const FIXED_HEADER: usize = 4 + 4 + 8 + 8 + 4;
/// Trailer bytes: `n_instants` + checksum.
const TRAILER: usize = 8 + 8;

/// Serializes `series` (and its catalog) into `.ppmc` bytes.
pub fn encode_columnar(series: &FeatureSeries, catalog: &FeatureCatalog) -> Vec<u8> {
    let encoded = EncodedSeries::encode(series);
    columnar_bytes(encoded.view(), catalog)
}

/// Serializes an already-encoded view (and a catalog) into `.ppmc` bytes.
pub fn columnar_bytes(view: EncodedSeriesView<'_>, catalog: &FeatureCatalog) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        FIXED_HEADER
            + catalog.iter().map(|(_, n)| n.len() + 4).sum::<usize>()
            + view.bytes()
            + TRAILER,
    );
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(view.width() as u64).to_le_bytes());
    buf.extend_from_slice(&(view.words_per_instant() as u64).to_le_bytes());
    buf.extend_from_slice(&(catalog.len() as u32).to_le_bytes());
    for (_, name) in catalog.iter() {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
    }
    for t in 0..view.len() {
        for &w in view.instant_words(t) {
            buf.extend_from_slice(&w.to_le_bytes());
        }
    }
    buf.extend_from_slice(&(view.len() as u64).to_le_bytes());
    let mut h = Fnv64::new();
    h.update(&buf);
    buf.extend_from_slice(&h.finish().to_le_bytes());
    buf
}

/// Writes `series` (and its catalog) to `path` in the columnar format.
pub fn write_columnar(
    path: impl AsRef<Path>,
    series: &FeatureSeries,
    catalog: &FeatureCatalog,
) -> Result<()> {
    let bytes = encode_columnar(series, catalog);
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

fn corrupt(detail: String) -> Error {
    Error::Corrupt { detail }
}

/// A fully validated columnar load: the bitmap words in one allocation,
/// borrowed out as [`EncodedSeriesView`]s.
#[derive(Debug, Clone)]
pub struct ColumnarReader {
    width: usize,
    words_per_instant: usize,
    n_instants: usize,
    words: Vec<u64>,
    catalog: FeatureCatalog,
    file_bytes: usize,
    checksum: u64,
}

impl ColumnarReader {
    /// Opens `path` with one read: the whole file is pulled into memory,
    /// checksum-verified, and its words section converted in a single pass
    /// into one word vector. Reports the bytes read through the
    /// `columnar.read_bytes` gauge.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let mut r = File::open(path)?;
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let reader = Self::from_bytes(&bytes)?;
        ppm_observe::gauge("columnar.read_bytes", reader.file_bytes as u64);
        Ok(reader)
    }

    /// Validates and loads `.ppmc` bytes. Every rejection names the byte
    /// offset of the failed check.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let len = bytes.len();
        if len < FIXED_HEADER + TRAILER {
            return Err(corrupt(format!(
                "file too short at offset {len}: need at least {} header+trailer bytes",
                FIXED_HEADER + TRAILER
            )));
        }
        let (body, tail) = bytes.split_at(len - 8);
        let stored_sum = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        let mut h = Fnv64::new();
        h.update(body);
        if h.finish() != stored_sum {
            return Err(corrupt(format!("checksum mismatch at offset {}", len - 8)));
        }

        let magic: [u8; 4] = body[0..4].try_into().expect("4 bytes");
        if &magic != MAGIC {
            return Err(corrupt(format!("bad magic {magic:?} at offset 0")));
        }
        let version = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(corrupt(format!(
                "unsupported version {version} at offset 4"
            )));
        }
        let width = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes")) as usize;
        let words_per_instant =
            u64::from_le_bytes(body[16..24].try_into().expect("8 bytes")) as usize;
        if words_per_instant != width.div_ceil(64) {
            return Err(corrupt(format!(
                "words-per-instant {words_per_instant} does not match width {width} at offset 16"
            )));
        }
        let n_names = u32::from_le_bytes(body[24..28].try_into().expect("4 bytes")) as usize;

        let words_end = len - TRAILER;
        let mut off = FIXED_HEADER;
        let mut catalog = FeatureCatalog::new();
        for i in 0..n_names {
            if off + 4 > words_end {
                return Err(corrupt(format!(
                    "truncated catalog entry {i} at offset {off}"
                )));
            }
            let name_len =
                u32::from_le_bytes(body[off..off + 4].try_into().expect("4 bytes")) as usize;
            off += 4;
            if off + name_len > words_end {
                return Err(corrupt(format!(
                    "truncated name in entry {i} at offset {off}"
                )));
            }
            let name = std::str::from_utf8(&body[off..off + name_len])
                .map_err(|_| corrupt(format!("non-utf8 name in entry {i} at offset {off}")))?;
            catalog.intern(name);
            off += name_len;
        }

        let n_instants =
            u64::from_le_bytes(body[words_end..words_end + 8].try_into().expect("8 bytes"))
                as usize;
        let need = n_instants
            .checked_mul(words_per_instant)
            .and_then(|w| w.checked_mul(8))
            .ok_or_else(|| {
                corrupt(format!(
                    "instant count {n_instants} overflows the words section at offset {words_end}"
                ))
            })?;
        let have = words_end - off;
        if have != need {
            return Err(corrupt(format!(
                "words section is {have} bytes at offset {off}, need {need} \
                 ({n_instants} instants × {words_per_instant} words)"
            )));
        }
        // The one conversion pass: byte section → a single word vector.
        let words: Vec<u64> = body[off..words_end]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();

        Ok(ColumnarReader {
            width,
            words_per_instant,
            n_instants,
            words,
            catalog,
            file_bytes: len,
            checksum: stored_sum,
        })
    }

    /// The borrowed bitmap view over the loaded words.
    pub fn view(&self) -> EncodedSeriesView<'_> {
        EncodedSeriesView::new(self.width, self.n_instants, &self.words)
    }

    /// The embedded feature catalog.
    pub fn catalog(&self) -> &FeatureCatalog {
        &self.catalog
    }

    /// Number of stored instants.
    pub fn len(&self) -> usize {
        self.n_instants
    }

    /// Whether the store holds no instants.
    pub fn is_empty(&self) -> bool {
        self.n_instants == 0
    }

    /// The feature-id universe of the stored bitmaps.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total size of the backing file in bytes.
    pub fn file_bytes(&self) -> usize {
        self.file_bytes
    }

    /// The store's content fingerprint: the verified trailer checksum
    /// (FNV-1a over every byte before it). Two stores with the same
    /// fingerprint hold byte-identical headers, catalogs, and bitmap rows,
    /// so the fingerprint is a sound cache key for results derived from
    /// this store; any append or rewrite changes it.
    pub fn fingerprint(&self) -> u64 {
        self.checksum
    }

    /// Whether this store is `prefix` plus zero or more appended whole
    /// instants: identical width, identical catalog, and the first
    /// `prefix.len()` instants' words bit-identical. This is what
    /// distinguishes legitimate [`ColumnarAppender`] growth (both states
    /// independently checksum-valid; the older is a strict prefix of the
    /// newer) from a rewrite or corruption, which changes resident rows.
    pub fn extends(&self, prefix: &ColumnarReader) -> bool {
        self.width == prefix.width
            && self.words_per_instant == prefix.words_per_instant
            && self.n_instants >= prefix.n_instants
            && self.catalog.len() == prefix.catalog.len()
            && self
                .catalog
                .iter()
                .zip(prefix.catalog.iter())
                .all(|((id_a, name_a), (id_b, name_b))| id_a == id_b && name_a == name_b)
            && self.words[..prefix.words.len()] == prefix.words[..]
    }

    /// Materializes the bitmaps back into a CSR [`FeatureSeries`] — for
    /// consumers that still need raw feature slices (quarantine, export,
    /// the tree-walk engines on non-view paths).
    pub fn to_series(&self) -> FeatureSeries {
        let view = self.view();
        let mut b = SeriesBuilder::new();
        for t in 0..view.len() {
            b.push_instant(view.features_at(t));
        }
        b.finish()
    }
}

/// Incremental segment arrival: appends encoded rows to an existing
/// `.ppmc` file with crash-safe publication.
///
/// Opening validates the whole file (so a corrupt store is rejected before
/// any write) and keeps the prefix bytes plus the streaming FNV state over
/// them; each appended instant then costs one row of hashing, and
/// [`Self::finish`] assembles the complete new store in a same-directory
/// temp file, fsyncs, atomically renames it over the original, and fsyncs
/// the parent directory. A crash (or `kill -9`) at any point leaves either
/// the prior store or the finished store on disk — both openable — never a
/// half-written hybrid.
#[derive(Debug)]
pub struct ColumnarAppender {
    path: PathBuf,
    /// The validated existing file minus its trailer.
    prefix: Vec<u8>,
    /// FNV state over the prefix plus any pending rows.
    hash: Fnv64,
    width: usize,
    words_per_instant: usize,
    n_instants: usize,
    /// Encoded rows not yet written, as raw LE bytes.
    pending: Vec<u8>,
    /// The fingerprint of the store as opened, before any append.
    opened_fingerprint: u64,
}

/// The staging path `finish` publishes through: `<store>.tmp`, always in
/// the store's own directory so the rename cannot cross filesystems.
fn staging_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

impl ColumnarAppender {
    /// Opens `path` for appending, validating the existing contents first.
    ///
    /// A stale staging file (`<path>.tmp`) left behind by a crashed append
    /// is removed here: the rename never happened, so the original store is
    /// authoritative and the orphan holds nothing worth keeping.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut r = File::open(&path)?;
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let existing = ColumnarReader::from_bytes(&bytes)?;
        std::fs::remove_file(staging_path(&path)).ok();
        bytes.truncate(bytes.len() - TRAILER);
        let mut hash = Fnv64::new();
        hash.update(&bytes);
        Ok(ColumnarAppender {
            path,
            prefix: bytes,
            hash,
            width: existing.width,
            words_per_instant: existing.words_per_instant,
            n_instants: existing.n_instants,
            pending: Vec::new(),
            opened_fingerprint: existing.checksum,
        })
    }

    /// The fingerprint of the store as it was opened, before any append.
    pub fn opened_fingerprint(&self) -> u64 {
        self.opened_fingerprint
    }

    /// The fingerprint the store *will* have once [`Self::finish`]
    /// publishes the pending rows — computed from the streaming FNV state
    /// without touching the file. Lets a live reader adopt the appended
    /// state (see [`Self::finish_extending`]) and lets caches be re-keyed
    /// before the publish lands.
    pub fn preview_fingerprint(&self) -> u64 {
        let mut h = self.hash.clone();
        h.update(&(self.n_instants as u64).to_le_bytes());
        h.finish()
    }

    /// The instant count after all appends so far.
    pub fn len(&self) -> usize {
        self.n_instants
    }

    /// Whether the store (including pending appends) holds no instants.
    pub fn is_empty(&self) -> bool {
        self.n_instants == 0
    }

    /// Appends one instant's feature set as an encoded row.
    ///
    /// Fails with [`Error::UnknownFeature`] if a feature id does not fit
    /// the store's fixed bitmap width — the layout cannot widen in place.
    pub fn append_instant(&mut self, features: &[FeatureId]) -> Result<()> {
        let mut row = vec![0u64; self.words_per_instant];
        for &f in features {
            let idx = f.index();
            if idx >= self.width {
                return Err(Error::UnknownFeature { id: f.raw() });
            }
            row[idx / 64] |= 1u64 << (idx % 64);
        }
        for w in row {
            let bytes = w.to_le_bytes();
            self.hash.update(&bytes);
            self.pending.extend_from_slice(&bytes);
        }
        self.n_instants += 1;
        Ok(())
    }

    /// Appends every instant of `series`.
    pub fn append_series(&mut self, series: &FeatureSeries) -> Result<()> {
        for t in 0..series.len() {
            self.append_instant(series.instant(t))?;
        }
        Ok(())
    }

    /// Publishes the appended store crash-safely; returns the new total
    /// instant count.
    ///
    /// The complete new file — prefix, pending rows, refreshed trailer —
    /// is written to `<path>.tmp` and fsynced *before* the atomic rename
    /// over `path`, then the parent directory is fsynced so the rename
    /// itself survives a power cut. If the rename fails the staging file
    /// is removed and the original store is untouched.
    pub fn finish(mut self) -> Result<usize> {
        let count_bytes = (self.n_instants as u64).to_le_bytes();
        self.hash.update(&count_bytes);
        let checksum = self.hash.finish();

        let tmp = staging_path(&self.path);
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            w.write_all(&self.prefix)?;
            w.write_all(&self.pending)?;
            w.write_all(&count_bytes)?;
            w.write_all(&checksum.to_le_bytes())?;
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        if let Err(e) = std::fs::rename(&tmp, &self.path) {
            std::fs::remove_file(&tmp).ok();
            return Err(e.into());
        }
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                d.sync_all().ok();
            }
        }
        Ok(self.n_instants)
    }

    /// [`Self::finish`], plus an in-memory extension of an already-loaded
    /// reader: publishes the appended store crash-safely and returns a
    /// new [`ColumnarReader`] equal to re-opening the published file —
    /// built by extending `resident`'s word vector with the pending rows
    /// instead of re-reading (and re-checksumming) the whole store.
    ///
    /// `resident` must be a load of the store this appender opened
    /// (matching fingerprint); otherwise the extension would splice rows
    /// onto the wrong base, so the call fails with [`Error::Corrupt`]
    /// before writing anything and the caller should fall back to a full
    /// re-open.
    pub fn finish_extending(self, resident: &ColumnarReader) -> Result<(usize, ColumnarReader)> {
        if resident.fingerprint() != self.opened_fingerprint {
            return Err(corrupt(format!(
                "resident reader fingerprint {:016x} is not the appender's base {:016x}",
                resident.fingerprint(),
                self.opened_fingerprint
            )));
        }
        let mut words = resident.words.clone();
        words.reserve(self.pending.len() / 8);
        words.extend(
            self.pending
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
        );
        let extended = ColumnarReader {
            width: self.width,
            words_per_instant: self.words_per_instant,
            n_instants: self.n_instants,
            words,
            catalog: resident.catalog.clone(),
            file_bytes: self.prefix.len() + self.pending.len() + TRAILER,
            checksum: self.preview_fingerprint(),
        };
        let n = self.finish()?;
        Ok((n, extended))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesBuilder;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    fn sample() -> (FeatureSeries, FeatureCatalog) {
        let mut cat = FeatureCatalog::new();
        let a = cat.intern("alpha");
        let b = cat.intern("beta");
        let c = cat.intern("gamma");
        let mut builder = SeriesBuilder::new();
        builder.push_instant([a, c]);
        builder.push_instant([]);
        builder.push_instant([b]);
        builder.push_instant([a, b, c]);
        (builder.finish(), cat)
    }

    fn temp(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("ppmc-test-{}-{tag}-{n}.ppmc", std::process::id()))
    }

    #[test]
    fn round_trips_bit_identically_with_the_in_memory_encode() {
        let (s, cat) = sample();
        let bytes = encode_columnar(&s, &cat);
        let reader = ColumnarReader::from_bytes(&bytes).unwrap();
        let enc = EncodedSeries::encode(&s);
        assert_eq!(reader.view(), enc.view());
        assert_eq!(reader.to_series(), s);
        assert_eq!(reader.catalog().len(), 3);
        assert_eq!(
            reader.catalog().name(cat.get("alpha").unwrap()),
            Some("alpha")
        );
        assert_eq!(reader.file_bytes(), bytes.len());
    }

    #[test]
    fn finish_extending_matches_a_fresh_open_bit_for_bit() {
        let (s, cat) = sample();
        let path = temp("extend");
        write_columnar(&path, &s, &cat).unwrap();
        let resident = ColumnarReader::open(&path).unwrap();

        let mut app = ColumnarAppender::open(&path).unwrap();
        assert_eq!(app.opened_fingerprint(), resident.fingerprint());
        app.append_instant(&[fid(0), fid(2)]).unwrap();
        app.append_instant(&[]).unwrap();
        app.append_instant(&[fid(1)]).unwrap();
        let preview = app.preview_fingerprint();
        let (n, extended) = app.finish_extending(&resident).unwrap();
        assert_eq!(n, 7);

        let reopened = ColumnarReader::open(&path).unwrap();
        assert_eq!(extended.fingerprint(), preview);
        assert_eq!(extended.fingerprint(), reopened.fingerprint());
        assert_eq!(extended.len(), reopened.len());
        assert_eq!(extended.file_bytes(), reopened.file_bytes());
        assert_eq!(extended.view(), reopened.view());
        assert!(reopened.extends(&resident));
        assert!(extended.extends(&resident));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn finish_extending_rejects_a_mismatched_resident() {
        let (s, cat) = sample();
        let path = temp("extend-mismatch");
        let other_path = temp("extend-other");
        write_columnar(&path, &s, &cat).unwrap();
        // A different store (one more instant) is not the appender's base.
        let mut s2 = SeriesBuilder::new();
        for t in 0..s.len() {
            s2.push_instant(s.instant(t).to_vec());
        }
        s2.push_instant([fid(0)]);
        write_columnar(&other_path, &s2.finish(), &cat).unwrap();
        let other = ColumnarReader::open(&other_path).unwrap();

        let mut app = ColumnarAppender::open(&path).unwrap();
        app.append_instant(&[fid(1)]).unwrap();
        assert!(app.finish_extending(&other).is_err());
        // Nothing was published: the original store is untouched.
        assert_eq!(ColumnarReader::open(&path).unwrap().len(), s.len());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&other_path).ok();
    }

    #[test]
    fn extends_rejects_rewrites_and_foreign_stores() {
        let (s, cat) = sample();
        let bytes = encode_columnar(&s, &cat);
        let base = ColumnarReader::from_bytes(&bytes).unwrap();
        assert!(base.extends(&base), "a store extends itself");

        // Same length but a flipped resident bit is a rewrite.
        let mut tampered = SeriesBuilder::new();
        tampered.push_instant([fid(0)]);
        for t in 1..s.len() {
            tampered.push_instant(s.instant(t).to_vec());
        }
        let tampered =
            ColumnarReader::from_bytes(&encode_columnar(&tampered.finish(), &cat)).unwrap();
        assert!(!tampered.extends(&base));

        // A different catalog is a different universe.
        let mut cat2 = FeatureCatalog::new();
        cat2.intern("alpha");
        cat2.intern("beta");
        cat2.intern("delta");
        let renamed = ColumnarReader::from_bytes(&encode_columnar(&s, &cat2)).unwrap();
        assert!(!renamed.extends(&base));
    }

    #[test]
    fn file_round_trip() {
        let (s, cat) = sample();
        let path = temp("roundtrip");
        write_columnar(&path, &s, &cat).unwrap();
        let reader = ColumnarReader::open(&path).unwrap();
        assert_eq!(reader.to_series(), s);
        assert_eq!(reader.len(), 4);
        assert!(!reader.is_empty());
        std::fs::remove_file(path).ok();
    }

    /// Satellite edge cases: widths 64 and 65 (word / inline-set boundary),
    /// the empty width-0 series, and a trailing partial segment — all
    /// bit-identical between the file-backed and in-memory paths.
    #[test]
    fn boundary_widths_round_trip_bit_identically() {
        for top in [63u32, 64u32] {
            let mut b = SeriesBuilder::new();
            b.push_instant([fid(0), fid(top)]);
            b.push_instant([fid(top)]);
            b.push_instant([]);
            b.push_instant([fid(1)]);
            b.push_instant([fid(0), fid(1), fid(top)]); // trailing partial segment at period 2
            let s = b.finish();
            let cat = FeatureCatalog::with_synthetic_features(top as usize + 1);
            let bytes = encode_columnar(&s, &cat);
            let reader = ColumnarReader::from_bytes(&bytes).unwrap();
            assert_eq!(reader.width(), top as usize + 1);
            assert_eq!(
                reader.view(),
                EncodedSeries::encode(&s).view(),
                "width {}",
                top + 1
            );
            assert_eq!(reader.to_series(), s, "width {}", top + 1);
        }
    }

    #[test]
    fn empty_series_round_trips_with_width_zero() {
        let s = SeriesBuilder::new().finish();
        let cat = FeatureCatalog::new();
        let bytes = encode_columnar(&s, &cat);
        let reader = ColumnarReader::from_bytes(&bytes).unwrap();
        assert!(reader.is_empty());
        assert_eq!(reader.width(), 0);
        assert_eq!(reader.to_series().len(), 0);
    }

    #[test]
    fn appender_extends_the_store_in_place() {
        let (s, cat) = sample();
        let path = temp("append");
        write_columnar(&path, &s, &cat).unwrap();

        let mut more = SeriesBuilder::new();
        more.push_instant([fid(1)]);
        more.push_instant([fid(0), fid(2)]);
        let more = more.finish();

        let mut appender = ColumnarAppender::open(&path).unwrap();
        assert_eq!(appender.len(), 4);
        assert!(!appender.is_empty());
        appender.append_series(&more).unwrap();
        assert_eq!(appender.finish().unwrap(), 6);

        // The appended store equals a from-scratch write of the whole series.
        let mut whole = SeriesBuilder::new();
        for t in 0..s.len() {
            whole.push_instant(s.instant(t).iter().copied());
        }
        for t in 0..more.len() {
            whole.push_instant(more.instant(t).iter().copied());
        }
        let whole = whole.finish();
        let reader = ColumnarReader::open(&path).unwrap();
        assert_eq!(reader.to_series(), whole);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            encode_columnar(&whole, &cat),
            "appended bytes must equal a fresh encode"
        );
        std::fs::remove_file(path).ok();
    }

    /// Kill-point fuzz for the crash-safe publish: simulate a crash at
    /// every byte of the staging write (original store + truncated
    /// `<path>.tmp` on disk) and assert the prior store still opens with
    /// its old contents; then simulate the post-rename state and assert
    /// the appended store opens. A fresh appender must also sweep the
    /// stale staging file away.
    #[test]
    fn crash_at_any_kill_point_leaves_an_openable_store() {
        let (s, cat) = sample();
        let path = temp("kill-points");
        write_columnar(&path, &s, &cat).unwrap();
        let original = std::fs::read(&path).unwrap();

        // The bytes a completed append would publish.
        let mut appender = ColumnarAppender::open(&path).unwrap();
        appender.append_instant(&[fid(1)]).unwrap();
        appender.append_instant(&[fid(0), fid(2)]).unwrap();
        appender.finish().unwrap();
        let finished = std::fs::read(&path).unwrap();
        assert_ne!(original, finished);

        let tmp = staging_path(&path);
        for cut in 0..finished.len() {
            // Crash state: rename never ran; tmp holds `cut` bytes.
            std::fs::write(&path, &original).unwrap();
            std::fs::write(&tmp, &finished[..cut]).unwrap();
            let reader = ColumnarReader::open(&path)
                .unwrap_or_else(|e| panic!("kill point {cut}: prior store must open: {e}"));
            assert_eq!(reader.len(), 4, "kill point {cut}");
            assert_eq!(reader.to_series(), s, "kill point {cut}");
            // Recovery: a fresh appender opens the prior store and sweeps
            // the orphaned staging file.
            let again = ColumnarAppender::open(&path)
                .unwrap_or_else(|e| panic!("kill point {cut}: reopen for append: {e}"));
            assert_eq!(again.len(), 4, "kill point {cut}");
            assert!(!tmp.exists(), "kill point {cut}: stale tmp must be swept");
        }

        // Crash state: rename completed, crash before anything else.
        std::fs::write(&path, &finished).unwrap();
        let reader = ColumnarReader::open(&path).unwrap();
        assert_eq!(reader.len(), 6, "post-rename store is the appended one");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_tracks_content_changes() {
        let (s, cat) = sample();
        let path = temp("fingerprint");
        write_columnar(&path, &s, &cat).unwrap();
        let before = ColumnarReader::open(&path).unwrap().fingerprint();
        // Identical bytes → identical fingerprint.
        assert_eq!(before, ColumnarReader::open(&path).unwrap().fingerprint());

        let mut appender = ColumnarAppender::open(&path).unwrap();
        appender.append_instant(&[fid(1)]).unwrap();
        appender.finish().unwrap();
        let after = ColumnarReader::open(&path).unwrap().fingerprint();
        assert_ne!(before, after, "an append must change the fingerprint");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn appender_rejects_features_past_the_width() {
        let (s, cat) = sample();
        let path = temp("append-wide");
        write_columnar(&path, &s, &cat).unwrap();
        let mut appender = ColumnarAppender::open(&path).unwrap();
        let err = appender.append_instant(&[fid(1000)]).unwrap_err();
        assert!(matches!(err, Error::UnknownFeature { id: 1000 }));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn appender_refuses_a_corrupt_store() {
        let (s, cat) = sample();
        let path = temp("append-corrupt");
        write_columnar(&path, &s, &cat).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(ColumnarAppender::open(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    // ---- Byte-flip / truncation fuzz (satellite: never mis-mine). ----

    #[test]
    fn every_single_byte_flip_is_rejected_with_an_offset() {
        let (s, cat) = sample();
        let bytes = encode_columnar(&s, &cat);
        for idx in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[idx] ^= 0xff;
            let err = ColumnarReader::from_bytes(&bad)
                .err()
                .unwrap_or_else(|| panic!("flip at {idx} accepted"));
            assert!(
                err.to_string().contains("offset"),
                "flip at {idx}: error names no offset: {err}"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected_with_an_offset() {
        let (s, cat) = sample();
        let bytes = encode_columnar(&s, &cat);
        for cut in 0..bytes.len() {
            let err = ColumnarReader::from_bytes(&bytes[..cut])
                .err()
                .unwrap_or_else(|| panic!("cut at {cut} accepted"));
            assert!(
                err.to_string().contains("offset"),
                "cut at {cut}: error names no offset: {err}"
            );
        }
    }

    #[test]
    fn structural_rejections_name_the_failed_field() {
        let (s, cat) = sample();
        let base = encode_columnar(&s, &cat);
        // Re-stamp the checksum after each structural edit so the named
        // structural check fires instead of the checksum gate.
        let restamp = |mut bytes: Vec<u8>| {
            let body = bytes.len() - 8;
            let mut h = Fnv64::new();
            h.update(&bytes[..body]);
            let sum = h.finish().to_le_bytes();
            bytes[body..].copy_from_slice(&sum);
            bytes
        };

        let mut bad_magic = base.clone();
        bad_magic[0] = b'X';
        let err = ColumnarReader::from_bytes(&restamp(bad_magic)).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        assert!(err.to_string().contains("offset 0"), "{err}");

        let mut bad_version = base.clone();
        bad_version[4] = 99;
        let err = ColumnarReader::from_bytes(&restamp(bad_version)).unwrap_err();
        assert!(err.to_string().contains("unsupported version 99"), "{err}");
        assert!(err.to_string().contains("offset 4"), "{err}");

        let mut bad_wpi = base.clone();
        bad_wpi[16] = bad_wpi[16].wrapping_add(1);
        let err = ColumnarReader::from_bytes(&restamp(bad_wpi)).unwrap_err();
        assert!(err.to_string().contains("words-per-instant"), "{err}");
        assert!(err.to_string().contains("offset 16"), "{err}");

        // Lying instant count: the words section no longer adds up.
        let mut bad_count = base.clone();
        let count_off = base.len() - 16;
        bad_count[count_off] = bad_count[count_off].wrapping_add(1);
        let err = ColumnarReader::from_bytes(&restamp(bad_count)).unwrap_err();
        assert!(err.to_string().contains("words section"), "{err}");

        // Truncated trailer: cut into the final 16 bytes.
        let err = ColumnarReader::from_bytes(&base[..base.len() - 9]).unwrap_err();
        assert!(err.to_string().contains("offset"), "{err}");
    }

    #[test]
    fn flipped_bitmap_word_is_caught_by_the_checksum() {
        let (s, cat) = sample();
        let bytes = encode_columnar(&s, &cat);
        // First word of the words section: right after the fixed header
        // and the three catalog names.
        let names_len: usize = ["alpha", "beta", "gamma"].iter().map(|n| 4 + n.len()).sum();
        let word0 = FIXED_HEADER + names_len;
        let mut bad = bytes.clone();
        bad[word0] ^= 0x01;
        let err = ColumnarReader::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = ColumnarReader::open("/nonexistent/definitely/missing.ppmc").unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }
}
