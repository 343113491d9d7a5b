//! A small, dependency-free flag parser.
//!
//! Grammar: the first non-flag token is the command; everything else is
//! `--key value` pairs or boolean `--switch`es. A flag is boolean when it
//! is followed by another flag or by nothing. Flags may appear in any
//! order; repeated flags keep the last value. Every command declares its
//! flags, and [`Parsed::reject_undeclared`] turns a misspelled one into a
//! usage error that names the nearest declared flag.

use std::collections::HashMap;

use crate::error::CliError;

/// Parsed command line: one command plus its flags.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    /// The subcommand (first positional token).
    pub command: String,
    flags: HashMap<String, Option<String>>,
}

impl Parsed {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Parsed, CliError> {
        let mut parsed = Parsed::default();
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            if let Some(name) = tok.strip_prefix("--") {
                if name.is_empty() {
                    return Err(CliError::Usage("bare `--` is not a flag".into()));
                }
                let value = argv.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                parsed.flags.insert(name.to_owned(), value);
            } else if parsed.command.is_empty() {
                parsed.command = tok.clone();
            } else {
                return Err(CliError::Usage(format!(
                    "unexpected positional argument {tok:?}"
                )));
            }
            i += 1;
        }
        if parsed.command.is_empty() {
            return Err(CliError::Usage(format!(
                "no command given\n{}",
                crate::usage()
            )));
        }
        Ok(parsed)
    }

    /// Fails with a usage error on the first flag (in name order) that
    /// none of the `declared` lists contains, suggesting the declared flag
    /// nearest to it by edit distance.
    pub fn reject_undeclared(&self, declared: &[&[&str]]) -> Result<(), CliError> {
        let declared = || declared.iter().flat_map(|list| list.iter().copied());
        let mut undeclared: Vec<&str> = self
            .flags
            .keys()
            .map(String::as_str)
            .filter(|flag| !declared().any(|d| d == *flag))
            .collect();
        undeclared.sort_unstable();
        let Some(flag) = undeclared.first() else {
            return Ok(());
        };
        let hint = declared()
            .min_by_key(|d| edit_distance(flag, d))
            .map(|d| format!("; did you mean --{d}?"))
            .unwrap_or_default();
        Err(CliError::Usage(format!(
            "unknown flag --{flag} for `ppm {}`{hint}",
            self.command
        )))
    }

    /// Whether a boolean switch is present.
    pub fn switch(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// An optional string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).and_then(|v| v.as_deref())
    }

    /// A required string flag.
    pub fn required(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{name} VALUE")))
    }

    /// A required parsed flag.
    pub fn required_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError> {
        let raw = self.required(name)?;
        raw.parse()
            .map_err(|_| CliError::Usage(format!("flag --{name}: cannot parse {raw:?}")))
    }

    /// An optional parsed flag with a default. The default applies only
    /// when the flag is absent: a valued flag given without its value
    /// (`--limit` at the end of the line) is a usage error, never the
    /// default in disguise.
    pub fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(None) => Err(CliError::Usage(format!(
                "flag --{name} needs a value (--{name} VALUE)"
            ))),
            Some(Some(_)) => self.required_parsed(name),
        }
    }

    /// A flag whose value is optional (`--sample` or `--sample N`): the
    /// default applies when the flag is absent or given bare.
    pub fn optional_value_or<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(_) => self.required_parsed(name),
        }
    }

    /// An optional comma-separated list flag (`--offsets 1,2,3`).
    pub fn parsed_list<T: std::str::FromStr>(
        &self,
        name: &str,
    ) -> Result<Option<Vec<T>>, CliError> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse().map_err(|_| {
                        CliError::Usage(format!("flag --{name}: cannot parse element {s:?}"))
                    })
                })
                .collect::<Result<Vec<T>, _>>()
                .map(Some),
        }
    }
}

/// Levenshtein distance between two flag names.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = diagonal + usize::from(ca != cb);
            diagonal = row[j + 1];
            row[j + 1] = substitute.min(row[j] + 1).min(diagonal + 1);
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let p = Parsed::parse(&argv("mine --input x.ppms --period 24 --maximal")).unwrap();
        assert_eq!(p.command, "mine");
        assert_eq!(p.get("input"), Some("x.ppms"));
        assert_eq!(p.required_parsed::<usize>("period").unwrap(), 24);
        assert!(p.switch("maximal"));
        assert!(!p.switch("looping"));
    }

    #[test]
    fn boolean_flag_before_valued_flag() {
        let p = Parsed::parse(&argv("mine --maximal --period 7")).unwrap();
        assert!(p.switch("maximal"));
        assert_eq!(p.get("maximal"), None);
        assert_eq!(p.required_parsed::<usize>("period").unwrap(), 7);
    }

    #[test]
    fn missing_command_errors() {
        assert!(Parsed::parse(&argv("--input x")).is_err());
        assert!(Parsed::parse(&[]).is_err());
    }

    #[test]
    fn unexpected_positional_errors() {
        assert!(Parsed::parse(&argv("mine extra")).is_err());
    }

    #[test]
    fn required_flag_errors_when_absent() {
        let p = Parsed::parse(&argv("mine")).unwrap();
        assert!(p.required("input").is_err());
        assert!(p.required_parsed::<usize>("period").is_err());
    }

    #[test]
    fn parse_errors_name_the_flag() {
        let p = Parsed::parse(&argv("mine --period abc")).unwrap();
        let err = p.required_parsed::<usize>("period").unwrap_err();
        assert!(err.to_string().contains("--period"));
    }

    #[test]
    fn defaults_apply() {
        let p = Parsed::parse(&argv("mine")).unwrap();
        assert_eq!(p.parsed_or("threads", 1usize).unwrap(), 1);
        let p = Parsed::parse(&argv("mine --threads 8")).unwrap();
        assert_eq!(p.parsed_or("threads", 1usize).unwrap(), 8);
    }

    #[test]
    fn a_valued_flag_without_its_value_is_a_usage_error() {
        for (line, name) in [
            ("mine --limit", "limit"),
            ("mine --threads --period 3", "threads"),
        ] {
            let p = Parsed::parse(&argv(line)).unwrap();
            let err = p.parsed_or(name, 20usize).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{line}");
            assert!(
                err.to_string().contains(&format!("--{name}")),
                "{line}: {err}"
            );
        }
    }

    #[test]
    fn optional_values_default_when_absent_or_bare() {
        let p = Parsed::parse(&argv("verify")).unwrap();
        assert_eq!(p.optional_value_or("sample", 64usize).unwrap(), 64);
        let p = Parsed::parse(&argv("verify --sample")).unwrap();
        assert_eq!(p.optional_value_or("sample", 64usize).unwrap(), 64);
        let p = Parsed::parse(&argv("verify --sample 5 --period 3")).unwrap();
        assert_eq!(p.optional_value_or("sample", 64usize).unwrap(), 5);
        let p = Parsed::parse(&argv("verify --sample x")).unwrap();
        assert!(p.optional_value_or("sample", 64usize).is_err());
    }

    #[test]
    fn list_flags_split_on_commas() {
        let p = Parsed::parse(&argv("mine --offsets 1,2,3")).unwrap();
        assert_eq!(
            p.parsed_list::<usize>("offsets").unwrap(),
            Some(vec![1, 2, 3])
        );
        let p = Parsed::parse(&argv("mine")).unwrap();
        assert_eq!(p.parsed_list::<usize>("offsets").unwrap(), None);
        let p = Parsed::parse(&argv("mine --offsets 1,x")).unwrap();
        assert!(p.parsed_list::<usize>("offsets").is_err());
    }

    #[test]
    fn repeated_flags_keep_last() {
        let p = Parsed::parse(&argv("mine --period 3 --period 5")).unwrap();
        assert_eq!(p.required_parsed::<usize>("period").unwrap(), 5);
    }

    #[test]
    fn declared_flags_pass() {
        let p = Parsed::parse(&argv("mine --input x --period 3 --trace")).unwrap();
        p.reject_undeclared(&[&["input", "period"], &["trace"]])
            .unwrap();
        Parsed::parse(&argv("help"))
            .unwrap()
            .reject_undeclared(&[])
            .unwrap();
    }

    #[test]
    fn undeclared_flags_name_the_nearest_declared_one() {
        let declared: &[&[&str]] = &[&["engine", "limit", "threads"], &["trace"]];
        let p = Parsed::parse(&argv("mine --engnie vertical --limt 2 --thraeds 4")).unwrap();
        let err = p.reject_undeclared(declared).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        // The first misspelling in name order is the one reported.
        assert!(msg.contains("unknown flag --engnie"), "{msg}");
        assert!(msg.contains("did you mean --engine?"), "{msg}");
        let p = Parsed::parse(&argv("mine --thraeds 4")).unwrap();
        let msg = p.reject_undeclared(declared).unwrap_err().to_string();
        assert!(msg.contains("did you mean --threads?"), "{msg}");
        let p = Parsed::parse(&argv("mine --trcae")).unwrap();
        let msg = p.reject_undeclared(declared).unwrap_err().to_string();
        assert!(msg.contains("did you mean --trace?"), "{msg}");
    }

    #[test]
    fn a_command_with_no_flags_rejects_any_flag() {
        let p = Parsed::parse(&argv("help --verbose")).unwrap();
        let msg = p.reject_undeclared(&[]).unwrap_err().to_string();
        assert!(msg.contains("unknown flag --verbose"), "{msg}");
        assert!(!msg.contains("did you mean"), "{msg}");
    }

    #[test]
    fn edit_distance_counts_single_character_edits() {
        assert_eq!(edit_distance("engine", "engine"), 0);
        assert_eq!(edit_distance("engnie", "engine"), 2);
        assert_eq!(edit_distance("limt", "limit"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("min-cnof", "min-conf"), 2);
    }

    #[test]
    fn bare_double_dash_rejected() {
        assert!(Parsed::parse(&argv("mine --")).is_err());
    }
}
