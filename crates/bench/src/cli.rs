//! The one command-line parser of this crate's binaries.
//!
//! A binary declares a [`Cli`]: its name, its usage synopsis, one table of its
//! flags (`"--workers N"` takes a value, `"--demo"` takes none) and how many
//! positionals it takes. [`Cli::parse`] checks the whole command line
//! against that before the binary does anything, under one set of rules:
//!
//! - a flag missing its value, a value that starts with `--`, an unknown
//!   flag and a positional past the count are usage errors, and so are a
//!   repeated flag and a malformed value once the binary reads them through
//!   [`CommandLine`] (every binary reads all of its flags before it acts);
//! - a usage error writes `<bin>: <message>` and the usage line to stderr
//!   and exits 2, before anything is written or created;
//! - `--help` / `-h` prints the usage line to stdout and exits 0.
//!
//! Runtime errors are the binaries' own and exit 1.

use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;

/// A binary's command-line grammar.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// The binary's name: the prefix of every usage error.
    pub bin: &'static str,
    /// What follows the name on the usage line, which is printed for
    /// `--help` and after every usage error.
    pub synopsis: &'static str,
    /// Every flag the binary takes; one with a metavariable after a space
    /// (`"--seed N"`) takes a value.
    pub flags: &'static [&'static str],
    /// How many positionals the binary takes at most.
    pub positionals: usize,
}

/// A command line that passed its [`Cli`]'s table.
#[derive(Debug)]
pub struct CommandLine {
    cli: Cli,
    flags: Vec<(&'static str, Option<String>)>,
    /// The positionals, in the order given.
    pub positionals: Vec<String>,
}

impl Cli {
    /// The grammar of a binary that takes no arguments.
    pub const fn no_args(bin: &'static str) -> Cli {
        Cli {
            bin,
            synopsis: "(no arguments)",
            flags: &[],
            positionals: 0,
        }
    }

    /// Check the process's arguments against this grammar.
    pub fn parse(self) -> CommandLine {
        self.scan(&mut std::env::args().skip(1), false)
    }

    /// A two-level command line: this grammar's flags up to its one
    /// positional, the command word, then the flags and positionals
    /// `commands` lists for that word. Returns both halves.
    pub fn parse_command(
        self,
        commands: &[(&str, &'static [&'static str], usize)],
    ) -> (CommandLine, CommandLine) {
        let mut raw = std::env::args().skip(1);
        let head = self.scan(&mut raw, true);
        let Some(command) = head.positionals.first() else {
            head.usage_error("no command given")
        };
        let Some(&(_, flags, positionals)) = commands.iter().find(|(name, ..)| name == command)
        else {
            head.usage_error(format!("unknown command {command:?}"))
        };
        let mut tail = self;
        (tail.flags, tail.positionals) = (flags, positionals);
        (head, tail.scan(&mut raw, false))
    }

    /// Parse `raw`; with `stop`, only up to the last positional this grammar
    /// takes, leaving the rest in `raw`.
    fn scan(self, raw: &mut impl Iterator<Item = String>, stop: bool) -> CommandLine {
        let mut args = CommandLine {
            cli: self,
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        while !(stop && args.positionals.len() == self.positionals) {
            let Some(arg) = raw.next() else { break };
            if arg == "--help" || arg == "-h" {
                println!("usage: {} {}", self.bin, self.synopsis);
                std::process::exit(0);
            }
            if !arg.starts_with('-') && args.positionals.len() < self.positionals {
                args.positionals.push(arg);
                continue;
            }
            let spec = self
                .flags
                .iter()
                .find(|s| s.split(' ').next() == Some(&arg));
            let Some(spec) = spec else {
                args.usage_error(format!("unknown argument {arg:?}"))
            };
            let name = &spec[..arg.len()];
            let value = (spec.len() > name.len()).then(|| match raw.next() {
                Some(value) if !value.starts_with("--") => value,
                _ => args.usage_error(format!("{name} needs a value")),
            });
            args.flags.push((name, value));
        }
        args
    }
}

impl CommandLine {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.once(flag).is_some()
    }

    /// The value given to `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.once(flag)?.as_deref()
    }

    /// The value given to `flag`, parsed as `T`. Every value given to it is
    /// parsed before a repeat is refused, so a malformed one is named as such.
    pub fn number<T: FromStr>(&self, flag: &str) -> Option<T> {
        let given = self.flags.iter().filter(|(name, _)| *name == flag);
        let values = given.filter_map(|(_, raw)| raw.as_deref());
        let mut numbers: Vec<T> = values.map(|raw| self.parse_value(flag, raw)).collect();
        self.once(flag).and(numbers.pop())
    }

    /// What `flag` was given, if it was; a repeated flag is a usage error.
    fn once(&self, flag: &str) -> Option<&Option<String>> {
        let mut given = self.flags.iter().filter(|(name, _)| *name == flag);
        let first = given.next().map(|(_, value)| value);
        if given.next().is_some() {
            self.usage_error(format!("{flag} given twice"));
        }
        first
    }

    /// `raw`, what the command line gave for `what`, parsed as `T`; a
    /// malformed value is a usage error, never a default.
    pub fn parse_value<T: FromStr>(&self, what: &str, raw: &str) -> T {
        raw.parse()
            .unwrap_or_else(|_| self.usage_error(format!("{what}: not a number: {raw:?}")))
    }

    /// The value given to `flag` as a number of seconds: NaN, an infinite,
    /// negative or out-of-range value is a usage error.
    pub fn seconds(&self, flag: &str) -> Option<Duration> {
        let secs: f64 = self.number(flag)?;
        Some(Duration::try_from_secs_f64(secs).unwrap_or_else(|_| {
            self.usage_error(format!("{flag}: not a duration in seconds: {secs}"))
        }))
    }

    /// The first positional, which names `what`; a usage error if missing.
    pub fn positional(&self, what: &str) -> &str {
        let first = self.positionals.first();
        first.unwrap_or_else(|| self.usage_error(format!("missing {what}")))
    }

    /// The thread count of the experiment binaries: `--threads N`, else the
    /// `ASHA_THREADS` environment variable, else `0` (one thread per core).
    /// A malformed value from either source is a usage error, even when the
    /// flag overrides the variable.
    pub fn threads(&self) -> usize {
        let env = std::env::var_os("ASHA_THREADS");
        let env = env.map(|raw| self.parse_value("ASHA_THREADS", &raw.to_string_lossy()));
        self.number("--threads").or(env).unwrap_or(0)
    }

    /// A malformed command line: `<bin>: <msg>` and the usage line on
    /// stderr, exit 2.
    pub fn usage_error(&self, msg: impl Display) -> ! {
        let Cli { bin, synopsis, .. } = self.cli;
        eprintln!("{bin}: {msg}\nusage: {bin} {synopsis}");
        std::process::exit(2);
    }
}
