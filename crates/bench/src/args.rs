//! The `sp2b` front end's one table and its dependency-free flag parser.
//!
//! [`COMMANDS`] lists, per command, the synopsis `usage` prints — and a
//! command accepts exactly the `--flags` its synopsis names, so the help
//! text and the accepted set cannot drift apart. [`RULES`] lists the
//! exclusions between flags. [`Args::check`] holds a parsed command line
//! against both, once, before anything runs: an unknown flag, a flag the
//! command would ignore and every mode conflict is a one-line error from
//! here. Values are validated where they are read, by the strict getters
//! below — a malformed value is an error naming the flag and the value,
//! never a silent default.

use std::collections::BTreeMap;

/// One `sp2b` command: its name, its synopsis (the flags it accepts,
/// with placeholders or defaults) and one line on what it does. A
/// synopsis that opens with a placeholder instead of a flag takes one
/// operand.
pub type Command = (&'static str, &'static str, &'static str);

/// Stands in a synopsis for [`ENGINE_FLAGS`].
const ENGINE_MARKER: &str = "[engine flags]";

/// What every command that opens a store takes (`open_engine` in the
/// binary): reopen saved segments, or parse/generate a document and
/// load it.
pub const ENGINE_FLAGS: &str =
    "[--store disk:DIR [--cache-bytes 64k]] | [--data FILE | --triples N [--seed N]] \
     [--engine native-opt] [--shards N] [--shard-by subject|pso]";

/// Every command, in usage order.
pub const COMMANDS: &[Command] = &[
    (
        "gen",
        "[--triples 10k] [--seed N] [--out sp2bench.nt]",
        "generate a document as N-Triples",
    ),
    (
        "save",
        "--out DIR [--data FILE | --triples 50k [--seed N]] [--shards N] [--shard-by subject|pso]",
        "write the document as checksummed segments for --store disk:DIR",
    ),
    ("table3", "[--max-exp 7]", "generator scaling"),
    (
        "table8",
        "[--sizes 10k,50k,250k,1M]",
        "document characteristics",
    ),
    (
        "table5",
        "[--sizes 10k,…] [--timeout 60]",
        "query result sizes",
    ),
    (
        "bench",
        "[--sizes 10k,…] [--timeout 30] [--runs 3] [--engines mem-naive,…] [--queries q1,…]
     [--quiet]",
        "the full protocol: tables IV/V/VI/VII + figure series",
    ),
    ("fig2a", "[--triples 250k]", "citation distribution"),
    ("fig2b", "[--year 1980]", "class instances per year"),
    (
        "fig2c",
        "[--year 1985] [--years 1955,1965,…]",
        "publications power law",
    ),
    (
        "ablation",
        "[--triples 50k] [--timeout 30]",
        "optimizer/index ablation",
    ),
    (
        "scaling",
        "[--triples 50k] [--threads 1,2,4,8] [--queries q1,…] [--timeout 60]",
        "thread-scaling speedups",
    ),
    (
        "smoke",
        "[engine flags] [--threads N] [--timeout 120]",
        "open (default: generate 5k triples), count every query once",
    ),
    (
        "serve",
        "[engine flags] [--addr 127.0.0.1:8088] [--threads 4] [--parallelism 1] [--timeout 30]
     [--queue 1024] [--duration SECS] [--slow-ms N]",
        "SPARQL protocol endpoint (HTTP/1.1) + GET /metrics, /stats; --threads sizes the pool",
    ),
    (
        "multiuser",
        "[engine flags] | --endpoint http://host:port/sparql  [--clients 4] [--threads 1]
     [--duration 30 | --rounds N] [--timeout 30] [--queries q1,a1,… | --mix q1:80,q8:20 | --zipf S]
     [--arrival closed|constant:R/s|poisson:R/s|burst:R,P,D] [--warmup SECS] [--seed N]
     [--checksums] [--report json:FILE] [--quiet]",
        "concurrent clients, closed or open loop; --seed replays the workload, not the generator",
    ),
    (
        "query",
        "LABEL [engine flags] [--threads N] [--timeout 300] [--limit 20]
     [--format table|json|csv|tsv] [--explain]",
        "one benchmark query (Q1…Q12c): rows, then the execution trace on request",
    ),
    (
        "run",
        "'SELECT …' | --query-file FILE  [engine flags] [--threads N] [--timeout 300] [--limit 50]
     [--format table|json|csv|tsv] [--explain]",
        "arbitrary SPARQL through the same path as `query`",
    ),
    (
        "ext",
        "[engine flags] [--threads N] [--timeout 300] [--limit 10]",
        "the A1–A5 aggregate extension queries",
    ),
];

/// Exclusions: when the first flag is present, each listed flag is an
/// error with this message (`{}` stands for the offending flag).
/// `--seed` is exempt under `multiuser`, where it seeds the workload
/// rather than the generator.
pub const RULES: &[(&str, &[&str], &str)] = &[
    (
        "store",
        &["data", "triples", "seed", "shards", "shard-by"],
        "--{} does not apply with --store disk: the saved segments fix the document and \
         sharding; re-run `sp2b save` to change them",
    ),
    (
        "endpoint",
        &[
            "data",
            "triples",
            "engine",
            "threads",
            "shards",
            "shard-by",
            "store",
            "cache-bytes",
        ],
        "--{} does not apply with --endpoint (the server owns the store); configure it on \
         `sp2b serve` instead",
    ),
    (
        "data",
        &["triples", "seed"],
        "--{} does not apply with --data: the file fixes the document",
    ),
    (
        "rounds",
        &["duration"],
        "--{} does not apply with --rounds: the run ends after the last round",
    ),
    (
        "mix",
        &["zipf"],
        "--mix and --zipf both rank the template mix; pass one or the other",
    ),
    (
        "queries",
        &["mix", "zipf"],
        "--queries names an unweighted rotation and cannot combine with --{}; fold the \
         templates into the weighted mix instead",
    ),
];

/// How many operands a command with this synopsis takes: one when it
/// opens with a placeholder (`LABEL`, `'SELECT …'`), none when it opens
/// with a flag.
fn operands(synopsis: &str) -> usize {
    usize::from(!synopsis.starts_with(['[', '-']))
}

/// True when a command with this synopsis takes `--flag`.
fn accepts(synopsis: &str, flag: &str) -> bool {
    names(synopsis, flag) || synopsis.contains(ENGINE_MARKER) && names(ENGINE_FLAGS, flag)
}

/// True when `synopsis` names `--flag` as a whole word.
fn names(synopsis: &str, flag: &str) -> bool {
    let needle = format!("--{flag}");
    synopsis.match_indices(&needle).any(|(at, _)| {
        !synopsis[at + needle.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
    })
}

/// The usage text, rendered from [`COMMANDS`].
pub fn usage() -> String {
    let mut out = String::from("usage: sp2b <command> [flags]\n\n");
    for (name, synopsis, about) in COMMANDS {
        out.push_str(&format!("sp2b {name} {synopsis}\n     → {about}\n"));
    }
    out.push_str(&format!(
        "\nengine flags: {ENGINE_FLAGS}\n\
         A flag the command does not list, a malformed value and a conflicting pair are errors."
    ));
    out
}

/// Parsed command line: positional arguments + `--key value` /
/// `--flag` options.
#[derive(Debug, Default, Clone)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// Options: `--key value` → key→value; bare `--flag` → key→"".
    pub options: BTreeMap<String, String>,
}

impl Args {
    /// Parses an iterator of arguments (excluding the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Args {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().unwrap_or_default(),
                    _ => String::new(),
                };
                out.options.insert(key.to_owned(), value);
            } else {
                out.positional.push(a);
            }
        }
        out
    }

    /// The command name (empty when none was given).
    pub fn command(&self) -> &str {
        self.positional.first().map_or("", String::as_str)
    }

    /// Holds the command line against [`COMMANDS`] and [`RULES`]: the
    /// command exists, takes no more operands than given, lists every
    /// flag present, and no exclusion rule fires.
    pub fn check(&self) -> Result<(), String> {
        let name = self.command();
        let &(_, synopsis, _) = COMMANDS
            .iter()
            .find(|c| c.0 == name)
            .ok_or_else(|| format!("unknown command '{name}'\n{}", usage()))?;
        if let Some(extra) = self.positional.get(1 + operands(synopsis)) {
            return Err(format!("unexpected argument '{extra}' for `sp2b {name}`"));
        }
        if let Some(flag) = self.options.keys().find(|f| !accepts(synopsis, f)) {
            let takes = synopsis.replace(ENGINE_MARKER, ENGINE_FLAGS);
            let takes = takes.split_whitespace().collect::<Vec<_>>().join(" ");
            return Err(format!(
                "--{flag} is not a flag of `sp2b {name}`, which takes: {takes}"
            ));
        }
        for (when, forbidden, message) in RULES {
            let clash = forbidden
                .iter()
                .find(|f| self.has(f) && (**f != "seed" || self.seeds_generator()));
            if let (true, Some(flag)) = (self.has(when), clash) {
                return Err(message.replace("{}", flag));
            }
        }
        if self.has("cache-bytes") && !self.has("store") {
            return Err(
                "--cache-bytes only applies with --store disk:DIR (the block cache serves \
                 saved segments; in-memory stores are fully resident)"
                    .into(),
            );
        }
        Ok(())
    }

    /// Whether `--seed` is the document generator's seed: everywhere but
    /// `multiuser`, where it replays the workload's samples and arrivals.
    pub fn seeds_generator(&self) -> bool {
        self.command() != "multiuser"
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Presence of a flag (with or without value).
    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// The strict-value contract every getter below shares: absent →
    /// `Ok(None)`; present but rejected by `parse` → a one-line error
    /// naming the flag, the value and what was `expected`. A benchmark
    /// must never silently run under a configuration the operator did
    /// not name.
    pub fn parsed<T>(
        &self,
        key: &str,
        expected: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| parse(v.trim()).ok_or_else(|| invalid(key, v, expected)))
            .transpose()
    }

    /// Comma-separated [`Args::parsed`]: one bad element, or none at all,
    /// fails the flag.
    pub fn parsed_list<T>(
        &self,
        key: &str,
        expected: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<Vec<T>>, String> {
        let Some(list) = self.get(key) else {
            return Ok(None);
        };
        let items = list.split(',').map(str::trim).filter(|s| !s.is_empty());
        match items
            .map(|s| parse(s).ok_or(s))
            .collect::<Result<Vec<T>, _>>()
        {
            Ok(items) if !items.is_empty() => Ok(Some(items)),
            Ok(_) => Err(invalid(key, list, expected)),
            Err(bad) => Err(invalid(key, bad, expected)),
        }
    }

    /// Positive integer (`--threads`, `--clients`, `--timeout`, …): zero
    /// is as malformed as garbage.
    pub fn get_positive_opt(&self, key: &str) -> Result<Option<usize>, String> {
        self.parsed(key, "N  (a positive integer)", positive)
    }

    /// Like [`Args::get_positive_opt`] with a default for the absent case.
    pub fn get_positive(&self, key: &str, default: usize) -> Result<usize, String> {
        Ok(self.get_positive_opt(key)?.unwrap_or(default))
    }

    /// A count with an optional `k`/`M` suffix (`--triples 50k`,
    /// `--limit 20`), `default` when absent.
    pub fn get_scaled(&self, key: &str, default: u64) -> Result<u64, String> {
        let expected = "N  (a count; k/M suffixes allowed, e.g. 50k)";
        Ok(self.parsed(key, expected, parse_scaled)?.unwrap_or(default))
    }

    /// Socket address (`IP:PORT`), `default` when absent.
    pub fn get_addr(&self, key: &str, default: &str) -> Result<std::net::SocketAddr, String> {
        let given = self.parsed(key, "IP:PORT  (e.g. 127.0.0.1:8088)", |v| v.parse().ok())?;
        Ok(given.unwrap_or_else(|| default.parse().expect("the default is a literal address")))
    }

    /// `--store disk:DIR`: a segment directory written by `sp2b save`.
    /// Absent → `Ok(None)` (load or generate as usual).
    pub fn get_store_dir(&self) -> Result<Option<std::path::PathBuf>, String> {
        let expected = "disk:DIR  (a segment directory written by `sp2b save`)";
        self.parsed("store", expected, |v| {
            let path = v.strip_prefix("disk:").filter(|p| !p.is_empty())?;
            Some(std::path::PathBuf::from(path))
        })
    }

    /// Positive byte size (`--cache-bytes 64k`), `k`/`M` suffixes as in
    /// `--sizes`.
    pub fn get_bytes_opt(&self, key: &str) -> Result<Option<u64>, String> {
        let expected = "BYTES  (a positive byte count; k/M suffixes allowed, e.g. 64k)";
        self.parsed(key, expected, |v| parse_scaled(v).filter(|&n| n > 0))
    }

    /// Positive finite float (`--zipf 1.5`).
    pub fn get_f64_opt(&self, key: &str) -> Result<Option<f64>, String> {
        self.parsed(key, "X  (a positive number)", |v| {
            v.parse().ok().filter(|x: &f64| x.is_finite() && *x > 0.0)
        })
    }

    /// Plain u64 (`--seed 42`).
    pub fn get_u64_opt(&self, key: &str) -> Result<Option<u64>, String> {
        self.parsed(key, "N  (a non-negative integer)", |v| v.parse().ok())
    }
}

fn invalid(key: &str, value: &str, expected: &str) -> String {
    format!("invalid --{key} value '{value}'; usage: --{key} {expected}")
}

/// A positive integer — the element parser of `--threads 1,2,4`.
pub fn positive(s: &str) -> Option<usize> {
    s.parse().ok().filter(|&n| n > 0)
}

/// Parses "250k", "1M", "5m", "1000000".
pub fn parse_scaled(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(rest) = s.strip_suffix(['k', 'K']) {
        return rest.parse::<u64>().ok()?.checked_mul(1_000);
    }
    if let Some(rest) = s.strip_suffix(['m', 'M']) {
        return rest.parse::<u64>().ok()?.checked_mul(1_000_000);
    }
    s.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn positional_and_options() {
        let a = args("table4 --sizes 10k,50k --timeout 30 --verbose");
        assert_eq!(a.positional, ["table4"]);
        assert_eq!(a.get("sizes"), Some("10k,50k"));
        assert_eq!(a.get_scaled("timeout", 5), Ok(30));
        assert_eq!(a.command(), "table4");
        assert!(a.has("verbose"));
        assert!(!a.has("nope"));
    }

    #[test]
    fn scaled_numbers() {
        assert_eq!(parse_scaled("10k"), Some(10_000));
        assert_eq!(parse_scaled("1M"), Some(1_000_000));
        assert_eq!(parse_scaled("5m"), Some(5_000_000));
        assert_eq!(parse_scaled("123"), Some(123));
        assert_eq!(parse_scaled("abc"), None);
        assert_eq!(parse_scaled("18446744073709551615k"), None, "no overflow");
    }

    #[test]
    fn positive_options_hard_error_on_malformed_and_zero() {
        let a = args("multiuser --clients 4 --threads 2");
        assert_eq!(a.get_positive("clients", 1), Ok(4));
        assert_eq!(a.get_positive_opt("threads"), Ok(Some(2)));
        // Absent: default / None.
        assert_eq!(a.get_positive("duration", 30), Ok(30));
        assert_eq!(a.get_positive_opt("duration"), Ok(None));
        // Zero is a hard error, not "treated as 1".
        let zero = args("multiuser --clients 0");
        let err = zero.get_positive("clients", 4).unwrap_err();
        assert!(err.contains("invalid --clients value '0'"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        // Malformed is a hard error, not a silent default.
        let bad = args("multiuser --threads four");
        let err = bad.get_positive_opt("threads").unwrap_err();
        assert!(err.contains("invalid --threads value 'four'"), "{err}");
        // Negative numbers don't parse as usize either.
        let neg = args("multiuser --clients -3");
        assert!(neg.get_positive("clients", 4).is_err());
    }

    #[test]
    fn addr_option_hard_errors_on_malformed_values() {
        let a = args("serve --addr 0.0.0.0:9001");
        assert_eq!(
            a.get_addr("addr", "127.0.0.1:8088"),
            Ok("0.0.0.0:9001".parse().unwrap())
        );
        // Absent: the default applies.
        assert_eq!(
            a.get_addr("bind", "127.0.0.1:8088"),
            Ok("127.0.0.1:8088".parse().unwrap())
        );
        // Malformed values (no port, bad port, hostname) are hard errors.
        for bad in ["127.0.0.1", "localhost:8088", "1.2.3.4:notaport", ":-1"] {
            let a = Args::parse(["serve".into(), "--addr".into(), bad.to_owned()]);
            let err = a.get_addr("addr", "127.0.0.1:8088").unwrap_err();
            assert!(
                err.contains(&format!("invalid --addr value '{bad}'")),
                "{err}"
            );
            assert!(err.contains("usage:"), "{err}");
        }
    }

    #[test]
    fn timeout_follows_the_positive_option_contract() {
        // `--timeout` shares get_positive: absent → default, malformed
        // or zero → hard error (no silent 30 s fallback).
        let a = args("bench --timeout 45");
        assert_eq!(a.get_positive("timeout", 30), Ok(45));
        assert_eq!(args("bench").get_positive("timeout", 30), Ok(30));
        for bad in ["0", "soon", "-5", "1.5"] {
            let a = Args::parse(["bench".into(), "--timeout".into(), bad.to_owned()]);
            let err = a.get_positive("timeout", 30).unwrap_err();
            assert!(
                err.contains(&format!("invalid --timeout value '{bad}'")),
                "{err}"
            );
        }
    }

    #[test]
    fn store_option_accepts_disk_dirs_and_hard_errors_otherwise() {
        let a = args("query Q1 --store disk:segs/50k");
        assert_eq!(
            a.get_store_dir(),
            Ok(Some(std::path::PathBuf::from("segs/50k")))
        );
        // Absent → None: load or generate as usual.
        assert_eq!(args("query Q1").get_store_dir(), Ok(None));
        // Empty path, unknown scheme or a bare path: hard usage errors,
        // never a silent in-memory fallback.
        for bad in ["disk:", "mem:segs", "segs", "disk"] {
            let a = Args::parse(["query".into(), "--store".into(), bad.to_owned()]);
            let err = a.get_store_dir().unwrap_err();
            assert!(
                err.contains(&format!("invalid --store value '{bad}'")),
                "{err}"
            );
            assert!(err.contains("usage: --store disk:DIR"), "{err}");
        }
    }

    #[test]
    fn bytes_option_scales_and_hard_errors_on_zero_or_garbage() {
        let a = args("smoke --store disk:segs --cache-bytes 64k");
        assert_eq!(a.get_bytes_opt("cache-bytes"), Ok(Some(64_000)));
        assert_eq!(
            args("smoke --cache-bytes 2M").get_bytes_opt("cache-bytes"),
            Ok(Some(2_000_000))
        );
        assert_eq!(
            args("smoke --cache-bytes 4096").get_bytes_opt("cache-bytes"),
            Ok(Some(4096))
        );
        // Absent: None — the store picks its size-proportional default.
        assert_eq!(args("smoke").get_bytes_opt("cache-bytes"), Ok(None));
        // Zero and garbage are hard errors, never a silent default.
        for bad in ["0", "lots", "-1", "1.5M"] {
            let a = Args::parse(["smoke".into(), "--cache-bytes".into(), bad.to_owned()]);
            let err = a.get_bytes_opt("cache-bytes").unwrap_err();
            assert!(
                err.contains(&format!("invalid --cache-bytes value '{bad}'")),
                "{err}"
            );
            assert!(err.contains("usage:"), "{err}");
        }
    }

    #[test]
    fn float_option_hard_errors_on_garbage_zero_and_negative() {
        assert_eq!(
            args("multiuser --zipf 1.5").get_f64_opt("zipf"),
            Ok(Some(1.5))
        );
        assert_eq!(args("multiuser").get_f64_opt("zipf"), Ok(None));
        for bad in ["0", "-1", "steep", "inf", "nan"] {
            let a = Args::parse(["multiuser".into(), "--zipf".into(), bad.to_owned()]);
            let err = a.get_f64_opt("zipf").unwrap_err();
            assert!(
                err.contains(&format!("invalid --zipf value '{bad}'")),
                "{err}"
            );
            assert!(err.contains("usage:"), "{err}");
        }
    }

    #[test]
    fn u64_option_hard_errors_on_malformed_values() {
        assert_eq!(
            args("multiuser --seed 42").get_u64_opt("seed"),
            Ok(Some(42))
        );
        assert_eq!(args("multiuser --seed 0").get_u64_opt("seed"), Ok(Some(0)));
        assert_eq!(args("multiuser").get_u64_opt("seed"), Ok(None));
        for bad in ["-1", "1.5", "abc"] {
            let a = Args::parse(["multiuser".into(), "--seed".into(), bad.to_owned()]);
            let err = a.get_u64_opt("seed").unwrap_err();
            assert!(
                err.contains(&format!("invalid --seed value '{bad}'")),
                "{err}"
            );
        }
    }

    #[test]
    fn list_option() {
        let item = |s: &str| Some(s.to_owned());
        let a = args("x --engines mem-opt, native-opt");
        // NB: the space splits tokens; only the first lands in the value.
        assert_eq!(
            a.parsed_list("engines", "E,E", item),
            Ok(Some(vec!["mem-opt".to_owned()]))
        );
        let a = args("x --engines mem-opt,native-opt");
        let both = a.parsed_list("engines", "E,E", item).unwrap().unwrap();
        assert_eq!(both, ["mem-opt", "native-opt"]);
        assert_eq!(a.parsed_list("queries", "Q,Q", item), Ok(None));
    }

    /// No value flag falls back silently: garbage is an error naming the
    /// flag and the value, through whichever getter the command uses.
    #[test]
    fn malformed_values_are_errors_naming_flag_and_value() {
        type Read = fn(&Args) -> Result<(), String>;
        let count: Read = |a| a.get_scaled("triples", 50_000).map(|_| ());
        let limit: Read = |a| a.get_scaled("limit", 20).map(|_| ());
        let runs: Read = |a| a.get_positive("runs", 3).map(|_| ());
        let max_exp: Read = |a| a.get_positive("max-exp", 7).map(|_| ());
        let year: Read = |a| {
            let year = a.parsed("year", "YYYY", |v| v.parse::<i32>().ok());
            year.map(|_| ())
        };
        let seed: Read = |a| a.get_u64_opt("seed").map(|_| ());
        for (flag, bad, read) in [
            ("triples", "abc", count),
            ("triples", "5kk", count),
            ("limit", "-3", limit),
            ("runs", "three", runs),
            ("runs", "0", runs),
            ("max-exp", "7.5", max_exp),
            ("year", "198o", year),
            ("seed", "zzz", seed),
            ("seed", "-1", seed),
            ("seed", "", seed),
        ] {
            for command in ["gen", "save"] {
                let a = Args::parse([command.into(), format!("--{flag}"), bad.to_owned()]);
                let err = read(&a).unwrap_err();
                let named = format!("invalid --{flag} value '{bad}'");
                assert!(err.contains(&named), "{err}");
                assert!(!err.contains('\n'), "one line: {err}");
            }
        }
        // Absent flags take the default; k/M suffixes scale.
        assert_eq!(args("gen").get_scaled("triples", 10_000), Ok(10_000));
        assert_eq!(
            args("gen --triples 5k").get_scaled("triples", 10_000),
            Ok(5_000)
        );
    }

    #[test]
    fn one_bad_list_element_fails_the_flag() {
        let years = |a: &Args| a.parsed_list("years", "YYYY,…", |s| s.parse::<i32>().ok());
        assert_eq!(
            args("table8 --sizes 5k,1M").parsed_list("sizes", "N,…", parse_scaled),
            Ok(Some(vec![5_000, 1_000_000]))
        );
        assert_eq!(
            years(&args("fig2c --years 1955,1965")),
            Ok(Some(vec![1955, 1965]))
        );
        let threads = |a: &Args| a.parsed_list("threads", "N,…", positive);
        assert_eq!(
            threads(&args("scaling --threads 1,2,4")),
            Ok(Some(vec![1, 2, 4]))
        );
        for (line, flag, bad) in [
            ("table8 --sizes 5k,oops", "sizes", "oops"),
            ("fig2c --years 1955,x", "years", "x"),
            ("scaling --threads 1,x", "threads", "x"),
            ("scaling --threads 1,0", "threads", "0"),
        ] {
            let a = args(line);
            let err = match flag {
                "sizes" => a.parsed_list("sizes", "N,…", parse_scaled).map(|_| ()),
                "years" => years(&a).map(|_| ()),
                _ => threads(&a).map(|_| ()),
            }
            .unwrap_err();
            let named = format!("invalid --{flag} value '{bad}'");
            assert!(err.contains(&named), "{err}");
        }
        // A list flag with nothing in it is malformed too.
        let a = Args::parse(["table8".into(), "--sizes".into(), ",".into()]);
        assert!(a.parsed_list("sizes", "N,…", parse_scaled).is_err());
    }

    /// Every flag any synopsis names.
    fn all_flags() -> std::collections::BTreeSet<String> {
        let text = COMMANDS.iter().map(|c| c.1).collect::<String>() + ENGINE_FLAGS;
        text.split("--")
            .skip(1)
            .map(|rest| {
                rest.chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect()
            })
            .collect()
    }

    fn check(line: &str) -> Result<(), String> {
        args(line).check()
    }

    /// `name`, plus a stand-in for the operand where one is expected.
    fn invocation(name: &str, synopsis: &str) -> String {
        format!("{name}{}", " OPERAND".repeat(operands(synopsis)))
    }

    #[test]
    fn every_command_rejects_every_flag_it_does_not_list() {
        let flags = all_flags();
        assert_eq!(COMMANDS.len(), 17);
        assert_eq!(flags.len(), 37, "{flags:?}");
        let mut rejected = 0;
        for &(name, synopsis, _) in COMMANDS {
            for flag in &flags {
                let alone = check(&format!("{} --{flag} 1", invocation(name, synopsis)));
                if accepts(synopsis, flag) {
                    let err = alone.err().unwrap_or_default();
                    assert!(!err.contains("is not a flag"), "{name} --{flag}: {err}");
                } else {
                    let err = alone.expect_err("an unlisted flag must be rejected");
                    assert!(err.contains(&format!("--{flag} ")), "{err}");
                    assert!(err.contains(&format!("`sp2b {name}`")), "{err}");
                    assert!(!err.contains('\n'), "one line: {err}");
                    rejected += 1;
                }
            }
        }
        assert!(rejected > 400, "{rejected}");
        // A typo is an unlisted flag; a surplus operand is an error too.
        let err = check("query Q1 --thread 1").unwrap_err();
        assert!(
            err.contains("--thread is not a flag of `sp2b query`"),
            "{err}"
        );
        assert!(check("smoke --triples 2000 --engine mem-naive").is_ok());
        assert!(check("query Q1 --data doc.nt").is_ok());
        let err = check("smoke 5000").unwrap_err();
        assert!(err.contains("unexpected argument '5000'"), "{err}");
        assert!(check("frobnicate").unwrap_err().contains("unknown command"));
    }

    #[test]
    fn every_exclusion_rule_yields_its_message() {
        // Each rule fires for each flag it forbids, on every command that
        // lists both, with the message naming the forbidden flag.
        for (when, forbidden, message) in RULES {
            for flag in *forbidden {
                let both = |c: &&Command| accepts(c.1, when) && accepts(c.1, flag);
                let commands: Vec<_> = COMMANDS.iter().filter(both).collect();
                assert!(!commands.is_empty(), "--{when}/--{flag} never meet");
                for &&(name, synopsis, _) in &commands {
                    let line = format!("{} --{when} 1 --{flag} 1", invocation(name, synopsis));
                    let expected = if *flag == "seed" && name == "multiuser" {
                        Ok(()) // here --seed replays the workload
                    } else {
                        Err(message.replace("{}", flag))
                    };
                    assert_eq!(check(&line), expected, "{line}");
                }
            }
        }
        // The texts CI and the README quote.
        for (line, quoted) in [
            (
                "smoke --store disk:segs --triples 5k",
                "--triples does not apply with --store disk:",
            ),
            (
                "query Q1 --store disk:segs --data d.nt",
                "--data does not apply with --store disk:",
            ),
            (
                "serve --store disk:segs --seed 7",
                "--seed does not apply with --store disk:",
            ),
            (
                "run Q --store disk:segs --shards 2",
                "--shards does not apply with --store disk:",
            ),
            (
                "ext --store disk:segs --shard-by pso",
                "--shard-by does not apply with --store disk:",
            ),
            (
                "multiuser --endpoint http://h:1/sparql --triples 5k",
                "--triples does not apply with --endpoint",
            ),
            (
                "multiuser --endpoint http://h:1/sparql --threads 2",
                "--threads does not apply with --endpoint",
            ),
            (
                "multiuser --endpoint http://h:1/sparql --store disk:segs",
                "--store does not apply with --endpoint",
            ),
            (
                "multiuser --endpoint http://h:1/sparql --cache-bytes 64k",
                "--cache-bytes does not apply with --endpoint",
            ),
            (
                "multiuser --endpoint http://h:1/sparql --data d.nt",
                "--data does not apply with --endpoint",
            ),
            (
                "smoke --cache-bytes 64k",
                "--cache-bytes only applies with --store disk:DIR",
            ),
            (
                "save --out segs --data d.nt --triples 5k",
                "--triples does not apply with --data",
            ),
            (
                "multiuser --rounds 2 --duration 5",
                "--duration does not apply with --rounds",
            ),
            ("multiuser --mix q1:1 --zipf 1.0", "--mix and --zipf"),
            (
                "multiuser --mix q1:1 --queries q1",
                "--queries names an unweighted rotation",
            ),
            (
                "multiuser --zipf 1.0 --queries q1",
                "cannot combine with --zipf",
            ),
        ] {
            let err = check(line).expect_err(line);
            assert!(err.contains(quoted), "{line}: {err}");
            assert!(!err.contains('\n'), "one line: {err}");
        }
        // Under `multiuser`, --seed replays the workload: the segments do
        // not fix it, and neither does --data.
        assert!(check("multiuser --store disk:segs --seed 42").is_ok());
        assert!(check("multiuser --data d.nt --seed 42").is_ok());
        assert!(check("multiuser --endpoint http://h:1/sparql --seed 42").is_ok());
        assert!(check("smoke --store disk:segs --cache-bytes 64k").is_ok());
    }

    /// The `sp2b` invocations of the CI workflow, pulled out of the file
    /// itself so this list cannot drift from what CI runs.
    fn ci_invocations() -> Vec<Vec<String>> {
        let ci = include_str!("../../../.github/workflows/ci.yml").replace("\\\n", " ");
        ci.lines()
            .filter_map(|line| line.split_once("--bin sp2b -- "))
            .map(|(_, rest)| {
                rest.split_whitespace()
                    .take_while(|t| !matches!(*t, "|" | "&") && !t.starts_with("2>"))
                    .map(String::from)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn every_ci_invocation_passes_the_table() {
        let invocations = ci_invocations();
        assert!(invocations.len() >= 25, "{}", invocations.len());
        let mut commands = std::collections::BTreeSet::new();
        for words in invocations {
            let line = words.join(" ");
            let a = Args::parse(words);
            commands.insert(a.command().to_owned());
            a.check().unwrap_or_else(|e| panic!("sp2b {line}: {e}"));
        }
        for expected in ["gen", "save", "smoke", "serve", "multiuser", "query"] {
            assert!(commands.contains(expected), "{commands:?}");
        }
    }

    #[test]
    fn usage_is_rendered_from_the_table() {
        let text = usage();
        for (name, synopsis, about) in COMMANDS {
            assert!(text.contains(&format!("sp2b {name} {synopsis}")), "{name}");
            assert!(text.contains(about), "{name}");
        }
        assert!(text.contains(ENGINE_FLAGS));
        // README's "The `sp2b` CLI" block is this text, verbatim.
        assert!(include_str!("../../../README.md").contains(&text));
    }
}
