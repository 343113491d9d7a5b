//! One mining path: every engine spelling prints byte-identical `ppm mine`
//! output whether the series arrives as text, as a block-binary `.ppms`
//! file or as a columnar `.ppmc` store, because all three are mined as one
//! bitmap view through the same engine dispatch. `--audit full` is clean
//! on every combination.

use std::path::PathBuf;

fn run(line: &str) -> String {
    let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    let mut out = Vec::new();
    ppm_cli::run(&argv, &mut out).unwrap_or_else(|e| panic!("`ppm {line}` failed: {e}"));
    String::from_utf8(out).expect("utf8 output")
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ppm-engine-identity-{}-{name}", std::process::id()))
}

#[test]
fn every_engine_spelling_mines_identically_on_every_input_format() {
    let generated = temp("generated.ppms");
    let text = temp("series.txt");
    let binary = temp("series.ppms");
    let columnar = temp("series.ppmc");
    run(&format!(
        "generate --length 3000 --period 25 --max-pat-length 4 --f1 8 --seed 7 --out {}",
        generated.display()
    ));
    // Every format comes from the one text rendering, so all three share
    // the catalog a text parse interns.
    run(&format!(
        "convert --input {} --out {}",
        generated.display(),
        text.display()
    ));
    run(&format!(
        "convert --input {} --out {}",
        text.display(),
        binary.display()
    ));
    run(&format!(
        "convert --input {} --out {}",
        text.display(),
        columnar.display()
    ));

    let spellings = [
        "hitset",
        "apriori",
        "parallel",
        "vertical",
        "vertical --threads 4",
    ];
    let mut two_scan_outputs = Vec::new();
    for engine in spellings {
        let mine = |input: &PathBuf, extra: &str| {
            run(&format!(
                "mine --input {} --period 25 --min-conf 0.6 --engine {engine}{extra}",
                input.display()
            ))
        };
        let from_text = mine(&text, "");
        assert!(
            from_text.contains("frequent patterns"),
            "{engine}: {from_text}"
        );
        assert_eq!(mine(&binary, ""), from_text, "{engine}: .ppms vs text");
        assert_eq!(mine(&columnar, ""), from_text, "{engine}: .ppmc vs text");
        if engine != "apriori" {
            two_scan_outputs.push((engine, from_text.clone()));
        }

        let audited = mine(&text, " --audit full");
        assert!(audited.starts_with(&from_text), "{engine}: {audited}");
        assert!(
            audited.contains("cross-check: 8 engines"),
            "{engine}: {audited}"
        );
        assert!(audited.contains("audit: clean"), "{engine}: {audited}");
        assert_eq!(
            mine(&binary, " --audit full"),
            audited,
            "{engine}: audited .ppms"
        );
        assert_eq!(
            mine(&columnar, " --audit full"),
            audited,
            "{engine}: audited .ppmc"
        );
    }
    // Apriori reports its level scans; every two-scan spelling prints the
    // very same bytes.
    for (engine, output) in &two_scan_outputs {
        assert_eq!(output, &two_scan_outputs[0].1, "{engine} vs hitset");
    }

    for path in [generated, text, binary, columnar] {
        std::fs::remove_file(path).ok();
    }
}
