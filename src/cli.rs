//! The command-line grammar of `gfab`: a declarative table of
//! subcommands (`COMMANDS` in `main.rs`), one parser that walks argv
//! once against it, typed getters whose errors name the flag, the usage
//! text rendered from the same table, and the single stdout writer.
//!
//! Anything the table does not allow is a usage error naming the token
//! and the subcommand: an unknown flag (or one only another subcommand
//! takes), a flag without its value, a repeated flag, and a missing or
//! surplus positional.

use std::fmt;
use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// One subcommand of the table.
pub struct Command {
    pub name: &'static str,
    /// The one-line description in `gfab help`'s COMMANDS block.
    pub summary: &'static str,
    /// Positional operands in order; a last one ending in `...` takes
    /// one or more values.
    pub positionals: &'static [&'static str],
    /// Accepted flags as shared groups and per-command lists, each
    /// written as in the usage text: `--stats` is a switch, `--k K`
    /// takes one value shown as `K`.
    pub flags: &'static [&'static [&'static str]],
    pub run: fn(&Args) -> Result<ExitCode, String>,
}

impl Command {
    /// The declaration of flag `name`, if this subcommand takes it.
    fn flag(&self, name: &str) -> Option<&'static str> {
        self.flags
            .iter()
            .flat_map(|g| g.iter().copied())
            .find(|f| f.split(' ').next() == Some(name))
    }

    /// `gfab <name> <positionals> [flags]`, wrapped and indented by two.
    pub fn synopsis(&self) -> String {
        const WIDTH: usize = 78;
        let head = format!("  gfab {}", self.name);
        let indent = head.len() + 1;
        let flags = self.flags.iter().flat_map(|g| g.iter());
        let words = self.positionals.iter().map(|p| p.to_string());
        let mut col = head.len();
        let mut out = head;
        for word in words.chain(flags.map(|f| format!("[{f}]"))) {
            if col + 1 + word.len() > WIDTH {
                out.push('\n');
                out.push_str(&" ".repeat(indent));
                col = indent;
            } else {
                out.push(' ');
                col += 1;
            }
            out.push_str(&word);
            col += word.len();
        }
        out + "\n"
    }
}

/// One subcommand's parsed argv.
pub struct Args<'a> {
    pub cmd: &'static Command,
    /// The tokens after the subcommand name, for the ledger fingerprint.
    argv: &'a [String],
    /// As many as `cmd` declares (at least one for a trailing `...`).
    pub positionals: Vec<&'a str>,
    /// Flags given, with their value (`""` for a switch).
    given: Vec<(&'a str, &'a str)>,
}

/// Parses the tokens after `cmd`'s name; `None` when `--help` or `-h`
/// asked for the command's usage instead.
pub fn parse<'a>(cmd: &'static Command, argv: &'a [String]) -> Result<Option<Args<'a>>, String> {
    let name = cmd.name;
    let see = format!("(see `gfab {name} --help`)");
    let mut args = Args {
        cmd,
        argv,
        positionals: Vec::new(),
        given: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(tok) = it.next() {
        if tok == "--help" || tok == "-h" {
            return Ok(None);
        }
        if tok.len() < 2 || !tok.starts_with('-') {
            args.positionals.push(tok);
            continue;
        }
        let flag = cmd
            .flag(tok)
            .ok_or_else(|| format!("{name}: unknown flag `{tok}` {see}"))?;
        if args.given.iter().any(|(n, _)| n == tok) {
            return Err(format!("{name}: `{tok}` given twice"));
        }
        let v = match flag.split_once(' ') {
            None => "",
            Some((_, metavar)) => it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{name}: `{tok}` needs a value {metavar}"))?,
        };
        args.given.push((tok, v));
    }
    let variadic = cmd.positionals.last().is_some_and(|p| p.ends_with("..."));
    let (n, want) = (args.positionals.len(), cmd.positionals.len());
    if n < want {
        return Err(format!("{name}: missing {} {see}", cmd.positionals[n]));
    }
    if n > want && !variadic {
        let extra = args.positionals[want];
        return Err(format!("{name}: unexpected argument `{extra}` {see}"));
    }
    Ok(Some(args))
}

impl<'a> Args<'a> {
    /// The raw value of `flag` (`""` for a switch), if given.
    pub fn value(&self, flag: &str) -> Option<&'a str> {
        debug_assert!(
            self.cmd.flag(flag).is_some(),
            "`{}` reads undeclared flag {flag}",
            self.cmd.name
        );
        self.given.iter().find(|(n, _)| *n == flag).map(|(_, v)| *v)
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The value of `flag` converted by `parse`, whose error is prefixed
    /// with the subcommand and the flag.
    pub fn value_with<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| parse(v).map_err(|e| format!("{} {flag}: {e}", self.cmd.name)))
            .transpose()
    }

    /// The value of `flag` parsed as a `T`.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value_with(flag, |v| v.parse().map_err(|_| format!("bad value `{v}`")))
    }

    /// The value of `flag` parsed as a duration (`500ms`, `5s`, `2m`, or
    /// a bare number of seconds).
    pub fn duration(&self, flag: &str) -> Result<Option<Duration>, String> {
        self.value_with(flag, parse_duration)
    }

    /// The ledger's command fingerprint of this invocation.
    pub fn fingerprint(&self) -> String {
        gfab::telemetry::fingerprint(self.cmd.name, self.argv)
    }
}

/// A count that must be at least 1.
pub fn positive<T: FromStr + Default + PartialOrd>(v: &str) -> Result<T, String> {
    v.parse()
        .ok()
        .filter(|n| *n > T::default())
        .ok_or_else(|| format!("bad value `{v}` (need a positive integer)"))
}

fn parse_duration(v: &str) -> Result<Duration, String> {
    let (digits, scale_ms) = if let Some(n) = v.strip_suffix("ms") {
        (n, 1u64)
    } else if let Some(n) = v.strip_suffix('s') {
        (n, 1000)
    } else if let Some(n) = v.strip_suffix('m') {
        (n, 60_000)
    } else {
        (v, 1000)
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad duration `{v}` (use e.g. 500ms, 5s, 2m)"))?;
    let ms = n
        .checked_mul(scale_ms)
        .ok_or_else(|| format!("duration `{v}` is too large"))?;
    Ok(Duration::from_millis(ms))
}

/// Set once stdout's reader has gone away; later output is dropped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to stdout; every line the CLI prints goes through here. When
/// the reader has gone away (`gfab gen ... | head -1`) the rest of the
/// output is dropped and the command still ends with its own exit code.
/// Any other write error loses output, so it ends the run with exit 2.
pub fn write_stdout(args: fmt::Arguments) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match std::io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
        }
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(2);
        }
    }
}

// The binary's own `print!` and `println!`: declared here, they shadow
// the standard macros in every module after `mod cli`, so all stdout
// output goes through [`write_stdout`].
macro_rules! print {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        $crate::cli::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}
