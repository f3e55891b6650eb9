//! Flag-parsing helpers shared by the `cachescope` and `campaign`
//! binaries. Both exit with code 2 on a malformed command line.

/// The value following `flag`, or exit 2 with `<flag> requires a value`.
pub fn value<'a>(args: &mut impl Iterator<Item = &'a String>, flag: &str) -> String {
    args.next().cloned().unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    })
}

/// Parse a numeric flag value, ignoring `_` digit separators
/// (`1_000_000`), or exit 2 with `invalid <what>: <s>`.
pub fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.replace('_', "").parse().unwrap_or_else(|_| {
        eprintln!("invalid {what}: {s}");
        std::process::exit(2);
    })
}
