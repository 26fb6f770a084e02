//! Minimal hand-rolled argument parser (no external CLI crates in the
//! offline dependency set).
//!
//! Grammar: `osr <subcommand> [positional…] [--key value]… [--flag]…`.
//! An option is a `--name` followed by a non-`--` token; a flag is a
//! `--name` followed by another `--` token or the end of input. Flags
//! must therefore be listed in [`Args::parse`]'s `known_flags` so the
//! parser can disambiguate.

use std::collections::{HashMap, HashSet};

/// Parsed command line.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Positional arguments (subcommand first).
    pub positional: Vec<String>,
    options: HashMap<String, String>,
    flags: HashSet<String>,
}

impl Args {
    /// Parses tokens. `known_flags` lists the `--names` that take no
    /// value.
    pub fn parse<I: IntoIterator<Item = String>>(
        tokens: I,
        known_flags: &[&str],
    ) -> Result<Self, String> {
        let mut out = Args::default();
        let mut iter = tokens.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if name.is_empty() {
                    return Err("empty option name `--`".into());
                }
                if known_flags.contains(&name) {
                    out.flags.insert(name.to_string());
                    continue;
                }
                match iter.next() {
                    Some(v) if !v.starts_with("--") => {
                        if out.options.insert(name.to_string(), v).is_some() {
                            return Err(format!("option --{name} given twice"));
                        }
                    }
                    _ => return Err(format!("option --{name} needs a value")),
                }
            } else {
                out.positional.push(tok);
            }
        }
        Ok(out)
    }

    /// The subcommand (first positional), if present.
    pub fn subcommand(&self) -> Option<&str> {
        self.positional.first().map(String::as_str)
    }

    /// Optional option value.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Required option value.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.opt(name)
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    /// Option parsed as `T`, with a default.
    pub fn opt_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.opt(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<T>()
                .map_err(|_| format!("bad value `{v}` for --{name}")),
        }
    }

    /// Whether a flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }

    /// The alphabetically first option or flag given that is not in
    /// `known`, if any.
    pub fn unknown_option(&self, known: &[&str]) -> Option<&str> {
        self.options
            .keys()
            .chain(self.flags.iter())
            .map(String::as_str)
            .filter(|name| !known.contains(name))
            .min()
    }
}

/// Splits a `name:a:b:c` spec into its head and numeric tail.
pub fn split_spec(spec: &str) -> (String, Vec<f64>) {
    let mut parts = spec.split(':');
    let head = parts.next().unwrap_or("").to_string();
    let nums = parts.filter_map(|p| p.parse::<f64>().ok()).collect();
    (head, nums)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str, flags: &[&str]) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from), flags)
    }

    #[test]
    fn positionals_options_flags() {
        let a = parse("run --eps 0.25 --gantt -", &["gantt"]).unwrap();
        assert_eq!(a.subcommand(), Some("run"));
        assert_eq!(a.opt("eps"), Some("0.25"));
        assert!(a.flag("gantt"));
        assert_eq!(a.positional, vec!["run", "-"]);
    }

    #[test]
    fn missing_value_detected() {
        assert!(parse("run --eps", &[]).is_err());
        assert!(parse("run --eps --gantt", &["gantt"]).is_err());
    }

    #[test]
    fn duplicate_option_rejected() {
        assert!(parse("run --eps 1 --eps 2", &[]).is_err());
    }

    #[test]
    fn opt_parse_with_default() {
        let a = parse("gen --n 50", &[]).unwrap();
        assert_eq!(a.opt_parse("n", 10usize).unwrap(), 50);
        assert_eq!(a.opt_parse("machines", 4usize).unwrap(), 4);
        assert!(a.opt_parse::<usize>("n", 0).is_ok());
        let b = parse("gen --n abc", &[]).unwrap();
        assert!(b.opt_parse::<usize>("n", 0).is_err());
    }

    #[test]
    fn unknown_option_names_the_first_stray() {
        let a = parse("run --algo x --zeta 1 --beta 2 --gantt", &["gantt"]).unwrap();
        assert_eq!(a.unknown_option(&["algo", "gantt"]), Some("beta"));
        assert_eq!(a.unknown_option(&["algo", "beta", "zeta"]), Some("gantt"));
        assert_eq!(a.unknown_option(&["algo", "beta", "zeta", "gantt"]), None);
    }

    #[test]
    fn require_reports_name() {
        let a = parse("gen", &[]).unwrap();
        let err = a.require("out").unwrap_err();
        assert!(err.contains("--out"));
    }

    #[test]
    fn split_spec_parses_tail() {
        let (head, nums) = split_spec("pareto:1.5:1:100");
        assert_eq!(head, "pareto");
        assert_eq!(nums, vec![1.5, 1.0, 100.0]);
        let (head, nums) = split_spec("unit");
        assert_eq!(head, "unit");
        assert!(nums.is_empty());
    }
}
