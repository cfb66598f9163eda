//! The harness binaries' one command-line parser: `--flag value` pairs,
//! boolean switches, comma lists and required flags, with an error for
//! any flag a binary does not declare. Each binary declares its flags
//! once and reads them through typed getters. A getter fails with
//! `invalid <flag>: <value>` when the value does not parse; the binary
//! prints the error and exits 1.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::str::FromStr;

/// A binary's exit status from its fallible body: the body's own status,
/// or the error on stderr, prefixed with `bin`, and exit status 1.
pub fn exit_status(bin: &str, result: Result<ExitCode, String>) -> ExitCode {
    result.unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        ExitCode::FAILURE
    })
}

/// Parsed command-line flags.
#[derive(Debug)]
pub struct Flags {
    declared: Vec<&'static str>,
    /// Given flags and their values (`""` for a switch).
    given: BTreeMap<&'static str, String>,
}

impl Flags {
    /// Parses the process arguments (after the program name); see
    /// [`Flags::parse`].
    ///
    /// # Errors
    ///
    /// As [`Flags::parse`].
    pub fn from_env(valued: &[&'static str], switches: &[&'static str]) -> Result<Flags, String> {
        Self::parse(std::env::args().skip(1), valued, switches)
    }

    /// Parses `args`: each `valued` flag takes the next argument as its
    /// value (a repeated flag keeps its last value), each `switches`
    /// flag takes none.
    ///
    /// # Errors
    ///
    /// An undeclared argument (`--help` included) or a valued flag with
    /// no value after it.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        valued: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Flags, String> {
        let declared: Vec<_> = valued.iter().chain(switches).copied().collect();
        let mut given = BTreeMap::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(&flag) = declared.iter().find(|&&f| f == arg) else {
                return Err(format!("unknown flag {arg}"));
            };
            let value = if valued.contains(&flag) {
                args.next()
                    .ok_or_else(|| format!("missing value for {flag}"))?
            } else {
                String::new()
            };
            given.insert(flag, value);
        }
        Ok(Flags { declared, given })
    }

    fn value(&self, flag: &str) -> Option<&str> {
        assert!(self.declared.contains(&flag), "undeclared flag {flag}");
        self.given.get(flag).map(String::as_str)
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// `flag` read by `parse`, or `None` when absent.
    pub fn opt_with<T>(
        &self,
        flag: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| parse(v).ok_or_else(|| format!("invalid {flag}: {v}")))
            .transpose()
    }

    /// `flag` parsed as `T`, or `None` when absent.
    pub fn opt<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.opt_with(flag, |v| v.parse().ok())
    }

    /// `flag` parsed as `T`, or `default` when absent.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        Ok(self.opt(flag)?.unwrap_or(default))
    }

    /// `flag` parsed as `T`; absence is the error `<flag> is required`.
    pub fn required<T: FromStr>(&self, flag: &str) -> Result<T, String> {
        self.opt(flag)?.ok_or_else(|| format!("{flag} is required"))
    }

    /// `flag` as a comma-separated list of `T`, or `default` when absent.
    pub fn list<T: FromStr>(&self, flag: &str, default: Vec<T>) -> Result<Vec<T>, String> {
        let items = |v: &str| v.split(',').map(|i| i.trim().parse().ok()).collect();
        Ok(self.opt_with(flag, items)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(
            args.iter().map(|a| a.to_string()),
            &["--mesh", "--rates", "--out"],
            &["--quick"],
        )
    }

    #[test]
    fn values_switches_lists_and_defaults() {
        let f = parse(&[
            "--quick",
            "--mesh",
            "4",
            "--rates",
            "0.1, 2e-3",
            "--mesh",
            "8",
        ])
        .expect("parses");
        assert!(f.switch("--quick"));
        assert_eq!(f.get("--mesh", 2_usize), Ok(8), "last value wins");
        assert_eq!(f.list("--rates", vec![1.0]), Ok(vec![0.1, 2e-3]));
        assert_eq!(f.get("--out", "x.json".to_string()), Ok("x.json".into()));
        assert_eq!(f.opt::<u64>("--out"), Ok(None));
        let none = parse(&[]).expect("parses");
        assert!(!none.switch("--quick"));
        assert_eq!(none.list("--rates", vec![1.0]), Ok(vec![1.0]));
    }

    #[test]
    fn errors_name_the_flag() {
        assert_eq!(parse(&["--bogus"]).unwrap_err(), "unknown flag --bogus");
        assert_eq!(parse(&["--help"]).unwrap_err(), "unknown flag --help");
        assert_eq!(parse(&["--mesh"]).unwrap_err(), "missing value for --mesh");
        let f = parse(&["--mesh", "four", "--rates", "0.1,x"]).expect("parses");
        assert_eq!(
            f.get("--mesh", 2_usize).unwrap_err(),
            "invalid --mesh: four"
        );
        assert_eq!(
            f.list::<f64>("--rates", vec![]).unwrap_err(),
            "invalid --rates: 0.1,x"
        );
        assert_eq!(
            f.required::<String>("--out").unwrap_err(),
            "--out is required"
        );
        assert_eq!(
            f.opt_with("--mesh", |v| (v == "4").then_some(4)),
            Err("invalid --mesh: four".to_string())
        );
    }
}
