//! `ppm` — a command-line partial periodic pattern miner.
//!
//! Thin, testable command layer over the workspace libraries:
//!
//! ```text
//! ppm generate --length 100000 --period 50 --max-pat-length 6 --f1 12 --out data.ppms
//! ppm info     --input data.ppms
//! ppm mine     --input data.ppms --period 50 --min-conf 0.6 [--engine vertical] [--limit 20]
//! ppm sweep    --input data.ppms --from 40 --to 60 --min-conf 0.6 [--engine vertical]
//! ppm perfect  --input data.ppms --from 40 --to 60
//! ppm convert  --input data.txt --out data.ppms
//! ```
//!
//! Series files are the binary `.ppms` format of
//! [`ppm_timeseries::storage::binary`], or the line-oriented text format
//! when the extension is `.txt`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod checkpoint;
pub mod cmd;
mod error;
pub mod obs;

pub use error::CliError;

use std::io::Write;

/// Entry point shared by the binary and the tests: parses `argv` (without
/// the program name) and runs the selected command, writing human output
/// to `out`.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = args::Parsed::parse(argv)?;
    match parsed.command.as_str() {
        "generate" => cmd::generate::run(&parsed, out),
        "info" => cmd::info::run(&parsed, out),
        "mine" => cmd::mine::run(&parsed, out),
        "sweep" => cmd::sweep::run(&parsed, out),
        "perfect" => cmd::perfect::run(&parsed, out),
        "convert" => cmd::convert::run(&parsed, out),
        "rules" => cmd::rules::run(&parsed, out),
        "evolve" => cmd::evolve::run(&parsed, out),
        "verify" => cmd::verify::run(&parsed, out),
        "serve" => cmd::serve::run(&parsed, out),
        "query" => cmd::query::run(&parsed, out),
        "chaos" => cmd::chaos::run(&parsed, out),
        "append" => cmd::append::run(&parsed, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{}", usage())?;
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n{}",
            usage()
        ))),
    }
}

/// [`run`] writing to the process's standard output. A reader that goes
/// away early (`ppm mine … | head`) is not a failure: once `out` itself
/// reports a broken pipe, the I/O error that aborts the command is
/// dropped and the run succeeds. A broken pipe anywhere else, such as a
/// daemon socket, is still an error.
pub fn run_to_stdout(argv: &[String], out: impl Write) -> Result<(), CliError> {
    let mut out = PipeWatch {
        inner: out,
        closed: false,
    };
    match run(argv, &mut out) {
        Err(CliError::Io(e)) if out.closed && e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        result => result,
    }
}

/// A writer that remembers whether its sink reported a broken pipe.
struct PipeWatch<W> {
    inner: W,
    closed: bool,
}

impl<W: Write> PipeWatch<W> {
    fn watch<T>(&mut self, result: std::io::Result<T>) -> std::io::Result<T> {
        if let Err(e) = &result {
            self.closed |= e.kind() == std::io::ErrorKind::BrokenPipe;
        }
        result
    }
}

impl<W: Write> Write for PipeWatch<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let result = self.inner.write(buf);
        self.watch(result)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let result = self.inner.flush();
        self.watch(result)
    }
}

/// The top-level usage text.
pub fn usage() -> &'static str {
    "ppm — partial periodic pattern mining (Han, Dong & Yin, ICDE 1999)

USAGE:
  ppm generate --length N --period P --max-pat-length L --f1 K --out FILE [--seed S]
  ppm info     --input FILE [--period P [--min-conf C]]
  ppm mine     --input FILE --period P --min-conf C
               [--engine apriori|hitset|parallel|vertical] [--threads N] [--stream]
               [--max-letters M] [--offsets 1,2,3] [--limit N] [--tsv]
               [--maximal | --closed]
               [--audit [full|sample|N]] [--quarantine] [--strict]
               [--retries N] [--deadline-ms MS] [--max-tree-nodes N]
               [--trace] [--metrics-out FILE]
               [--progress [--progress-interval-ms MS]]
               [--follow [--window N] [--follow-poll-ms MS]
                [--follow-max-updates N]]
               [--compare-incremental N [--bench-report NAME]]
  ppm append   --input FILE.ppmc --rows \"a b;c;-\" [--repeat N]
  ppm verify   --input FILE --patterns FILE.tsv --period P --min-conf C
               [--sample [N]]
  ppm sweep    --input FILE --from P1 --to P2 --min-conf C [--looping]
               [--engine hitset|apriori|vertical] [--compare-tree]
               [--workers N] [--compare-ingest FILE.txt]
               [--checkpoint FILE] [--deadline-ms MS] [--max-tree-nodes N]
               [--trace] [--metrics-out FILE] [--bench-report NAME]
  ppm perfect  --input FILE --from P1 --to P2
  ppm rules    --input FILE --period P --min-conf C [--min-rule-conf R] [--tsv]
  ppm evolve   --input FILE --period P --min-conf C --window W [--stride S]
  ppm convert  --input FILE --out FILE [--salvage]
               [--to text|binary|stream|columnar]
  ppm serve    --stores A.ppmc,B.ppmc [--port P | --socket PATH]
               [--workers N] [--queue N] [--cache FILE]
               [--cache-max-entries N] [--cache-max-bytes B]
               [--deadline-ms MS] [--max-tree-nodes N]
               [--drain-ms MS] [--retry-after-ms MS] [--test-faults]
               [--idle-timeout-ms MS] [--frame-deadline-ms MS]
               [--max-requests-per-conn N] [--verify-interval-ms MS]
  ppm query    [--port P | --socket PATH | --endpoints A,B,C]
               [--op mine|rules|verify|append|info|health|stats|shutdown]
               [--store NAME --period P --min-conf C]
               [--rows \"a b;c;-\" [--repeat N]]
               [--engine hitset|apriori|vertical|incremental]
               [--limit N] [--no-cache]
               [--quarantine [--inject-garbage T]] [--show-cached]
               [--deadline-ms MS] [--max-tree-nodes N] [--min-rule-conf R]
               [--retries N] [--backoff-ms MS] [--backoff-max-ms MS]
               [--io-timeout-ms MS] [--hedge-ms MS] [--seed S] [--recheck]
  ppm chaos    --upstream HOST:PORT [--port P] [--seed S]
               [--fault-percent PCT] [--delay-ms MS]
  ppm help

Series files by extension: .ppms (block binary, checksummed), .ppmstream
(record streaming, minable out of core with --stream), .txt (one instant
per line, features space-separated, '-' = empty), .ppmc (columnar bitmap
store whose on-disk layout is the miners' encoded layout — mine, sweep,
and verify open it straight into a borrowed view with no re-encoding;
write one with convert --to columnar).

Serving: ppm serve keeps every --stores .ppmc open as one shared
zero-copy view and answers concurrent queries over a length-prefixed
JSON protocol (TCP or Unix socket). Admission control sheds queries
beyond --queue with an explicit retry-after response; a panicking query
is contained to an error response; mined results land in a crash-safe
cache (--cache FILE, checksummed entries, atomic publish) keyed by
store fingerprint + period + min_conf + engine, where a lower-confidence
entry also answers higher-confidence queries by anti-monotone filtering.
SIGTERM drains in-flight queries under --drain-ms, flushes the cache,
and exits cleanly. ppm query is the matching client; its mine output is
byte-identical to direct ppm mine on the same store.

Continuous ingestion: ppm append grows a .ppmc in place (atomic
publish); mine --follow tails a growing store, re-mining only the
patterns an appended segment could have changed through an incremental
vertical index (bit-identical to a cold mine at every state); ppm query
--op append sends rows to a daemon, which feeds its live indexes and
selectively migrates provably-unchanged cache entries to the new store
fingerprint instead of dropping them.

Replication: run several `ppm serve` daemons over the same .ppmc files
and point `ppm query --endpoints a,b,c` at all of them. The client
retries transients (connect failures, truncated responses, overload,
quarantined stores) in rounds over the replicas with exponential
backoff + seeded jitter, honors overload retry_after_ms hints, and with
--hedge-ms T duplicates a request still unanswered after T ms to the
next replica — first answer wins, and when both answer they must match
byte-for-byte (minus cache provenance). The daemon re-verifies store
checksums every --verify-interval-ms and quarantines a store whose file
went bad (healthy stores keep serving; `--op health [--recheck]`
reports per-store status and exits 4 when degraded). The result cache
is bounded (--cache-max-entries / --cache-max-bytes, second-chance
eviction, crash-safe). Connections are hardened: --idle-timeout-ms
reaps idle peers, --frame-deadline-ms bounds one frame end to end (slow
feeders can't hold workers), --max-requests-per-conn closes chatty
connections. ppm chaos is a deterministic seeded proxy that delays,
truncates, corrupts, duplicates, and severs responses — the harness the
soak tests use to prove all of the above.

Exit codes (shared between direct commands and the daemon): 0 success;
1 internal failure; 2 usage; 3 partial result (a --deadline-ms /
--max-tree-nodes guard tripped; partial progress was reported); 4 input
quarantined (counts are sound lower bounds); 5 transient-I/O retries
exhausted; 6 daemon overloaded (retry after the hinted backoff).

Resilience: --retries N re-scans a .ppmstream up to N extra times on
transient I/O errors; --deadline-ms / --max-tree-nodes abort runaway mines
with a typed error carrying partial statistics; sweep --checkpoint FILE
records each completed period and resumes after a crash or abort without
re-mining; convert --salvage recovers the valid record prefix of a
truncated .ppmstream.

Engines: --engine picks the counting strategy (--algorithm is the same
flag). hitset is the paper's two-scan max-subpattern method; apriori is
the level-wise Alg 3.1; parallel shards the hit-set scans across threads;
vertical replaces the tree with per-letter segment bitmaps — counting a
candidate is a k-way AND + popcount — and honours --threads too. Every
sweep engine shares ONE encode/load (a .ppmc input opens directly as the
bitmap rows); --compare-tree additionally races each period against the
tree walk and fails on any disagreement. sweep --workers N mines the
range with a work-stealing scheduler (per-worker deques plus a shared
injector, idle workers steal periods from peers) off that one shared
load; with --bench-report the sequential per-period baseline also runs
and the head-to-head lands in sweep_compare. sweep --compare-ingest
FILE.txt (columnar input only) races text parse+encode against the
columnar open and records ingest_compare.

Verification: mine --audit checks the result against the paper's
invariants (anti-monotone counts, downward closure, confidence bounds,
Property 3.2 bookkeeping), recounts patterns with an independent oracle
(full, or a deterministic sample), and diffs the hit-set, Apriori,
streaming, and vertical engines against each other; violations exit
non-zero.
mine --quarantine skips malformed instants at the scan boundary and
reports them (counts become sound lower bounds); --strict fails fast on
the first one instead. verify re-audits an exported `mine --tsv` file
against its input series.

Observability: --trace prints a live span tree to stderr; --metrics-out
FILE streams structured events as JSON lines and appends a final summary
(per-phase timings, counters, retry/guard counts, mining stats);
mine --progress prints a segments/ETA heartbeat to stderr;
sweep --bench-report NAME writes BENCH_NAME.json with per-phase wall
clock, peak tree nodes, and scan counts; info --period P reports the
Property 3.2 hit-set buffer bound for that period."
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts `room` bytes, then fails every write like a pipe whose
    /// reader exited.
    struct ClosingPipe {
        room: usize,
    }

    impl Write for ClosingPipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|&a| a.to_owned()).collect()
    }

    #[test]
    fn a_reader_closing_stdout_early_is_a_clean_exit() {
        let help = argv(&["help"]);
        let plain = run(&help, &mut ClosingPipe { room: 10 });
        assert!(
            matches!(&plain, Err(CliError::Io(e)) if e.kind() == std::io::ErrorKind::BrokenPipe),
            "{plain:?}"
        );
        assert!(run_to_stdout(&help, ClosingPipe { room: 10 }).is_ok());
        assert!(run_to_stdout(&help, ClosingPipe { room: 0 }).is_ok());
    }

    #[test]
    fn other_failures_still_fail_with_a_closed_stdout() {
        let err = run_to_stdout(&argv(&["nosuch"]), ClosingPipe { room: 0 }).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }
}
