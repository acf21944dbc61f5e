//! `mlp-trace` — generate, inspect and import binary traces.
//!
//! ```text
//! mlp-trace gen    <database|specjbb2000|specweb99> <count> <file> [seed]
//! mlp-trace stats  <file>
//! mlp-trace dump   <file> [count]
//! mlp-trace info   <file>
//! mlp-trace import <in.txt> <out>
//! ```
//!
//! Every trace is read and written in the chunked, delta-compressed v2
//! format (`mlp_isa::chunked`), whatever the file name; a file in any
//! other format (an old flat v1 file among them) is refused as a bad
//! trace magic.
//!
//! `info` prints the container details from the footer index without
//! decoding instruction payloads: instruction count, chunk geometry and
//! bytes per instruction. `dump` reads only what it prints: the chunks
//! holding its first `count` instructions, and the count of the rest
//! from the footer index, so it needs one chunk's memory whatever the
//! trace's length. `stats` decodes every chunk but folds each one into
//! its counts as it goes, so it too holds one chunk at a time (plus the
//! sets of distinct lines it counts), and `gen` writes the generator's
//! stream as it comes.
//!
//! `import` reads a gem5-ish text listing, one instruction per line
//! (`#` comments and blank lines ignored), fields whitespace-separated:
//!
//! ```text
//! <pc-hex> <op> [key=value ...]
//! 0x4000 load addr=0x80040 base=r4 dst=r5 val=0x1234
//! 0x4004 alu srcs=r5,r2 dst=r6
//! 0x4008 store addr=0x80048 base=r4 src=r6
//! 0x400c branch cond=r6 taken=1 target=0x4000
//! ```
//!
//! Ops: `alu` (`srcs=`, `dst=`), `load` (`addr=`, `base=`, `dst=`,
//! optional `val=`), `store` (`addr=`, `base=`, `src=`), `prefetch`
//! (`addr=`, `base=`), `branch` (`cond=`, `taken=`, `target=`), `call` /
//! `ret` (`target=`), `indirect` (`base=`, `target=`), `casa` (`addr=`,
//! `base=`, `cmp=`, `swap=`, `dst=`, optional `val=`), `membar`, `nop`.
//! Registers are `rN` (0-63); numbers accept `0x` hex or decimal. Each
//! key appears at most once on a line, and `srcs=` lists one to three
//! registers; a repeated key or a fourth source is a malformed line.
//!
//! Exit codes are uniform: `0` on success, `1` for I/O failures, corrupt
//! traces and malformed import lines (details — including the offending
//! record/chunk or line number — go to stderr), `2` for usage errors.
//! A reader that closes the output early (`mlp-trace dump x | head`) is
//! not a failure: the command stops quietly with `0`.

use mlp_isa::chunked::{self, TraceFileError};
use mlp_isa::{Inst, Reg, TraceStats};
use mlp_workloads::{Workload, WorkloadKind};
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};

fn usage() -> ! {
    eprintln!(
        "usage:\n  mlp-trace gen    <database|specjbb2000|specweb99> <count> <file> [seed]\n  \
         mlp-trace stats  <file>\n  \
         mlp-trace dump   <file> [count]\n  \
         mlp-trace info   <file>\n  \
         mlp-trace import <in.txt> <out>"
    );
    std::process::exit(2);
}

fn parse_kind(name: &str) -> Option<WorkloadKind> {
    match name.to_ascii_lowercase().as_str() {
        "database" | "db" => Some(WorkloadKind::Database),
        "specjbb2000" | "jbb" => Some(WorkloadKind::SpecJbb2000),
        "specweb99" | "web" => Some(WorkloadKind::SpecWeb99),
        _ => None,
    }
}

/// A runtime (non-usage) failure: what we were doing and what went
/// wrong. Every case exits 1 via `main`.
struct CliError {
    context: String,
    cause: CliCause,
}

enum CliCause {
    Io(std::io::Error),
    Trace(TraceFileError),
    Parse(String),
    /// Writing the command's own output failed.
    Stdout(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.cause {
            CliCause::Io(e) | CliCause::Stdout(e) => write!(f, "{}: {e}", self.context),
            CliCause::Trace(e) => write!(f, "{}: {e}", self.context),
            CliCause::Parse(e) => write!(f, "{}: {e}", self.context),
        }
    }
}

/// A bare I/O error in [`run`] comes from writing stdout: every file
/// operation maps its own error through [`ctx`] first.
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError {
            context: "cannot write to stdout".into(),
            cause: CliCause::Stdout(e),
        }
    }
}

/// Attaches a "doing what, to which path" context to an error.
fn ctx<E: Into<CliCause>>(action: &str, path: &str) -> impl FnOnce(E) -> CliError {
    let context = format!("cannot {action} {path}");
    move |e| CliError {
        context,
        cause: e.into(),
    }
}

impl From<std::io::Error> for CliCause {
    fn from(e: std::io::Error) -> CliCause {
        CliCause::Io(e)
    }
}

impl From<TraceFileError> for CliCause {
    fn from(e: TraceFileError) -> CliCause {
        CliCause::Trace(e)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = BufWriter::new(io::stdout().lock());
    let ran = run(&args, &mut out);
    let flushed = out.flush().map_err(CliError::from);
    match ran.and(flushed) {
        Ok(()) => {}
        // The reader closed the pipe: it has all the output it wanted.
        Err(CliError {
            cause: CliCause::Stdout(e),
            ..
        }) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("mlp-trace: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes `insts` to `path`.
fn write_trace(path: &str, insts: impl IntoIterator<Item = Inst>) -> Result<(), CliError> {
    let file = File::create(path).map_err(ctx("create", path))?;
    let mut w = chunked::ChunkedWriter::new(BufWriter::new(file), chunked::DEFAULT_CHUNK_INSTS)
        .map_err(ctx("write", path))?;
    w.extend(insts).map_err(ctx("write", path))?;
    w.finish().map_err(ctx("write", path))?;
    Ok(())
}

fn run(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("gen") => {
            let [_, kind, count, path, rest @ ..] = args else {
                usage()
            };
            let Some(kind) = parse_kind(kind) else {
                usage()
            };
            let Ok(count) = count.parse::<usize>() else {
                usage()
            };
            let seed = rest
                .first()
                .map(|s| s.parse::<u64>().unwrap_or_else(|_| usage()))
                .unwrap_or(42);
            write_trace(path, Workload::new(kind, seed).take(count))?;
            writeln!(
                out,
                "wrote {count} instructions of {kind} (seed {seed}) to {path}"
            )?;
        }
        Some("stats") => {
            let [_, path] = args else { usage() };
            let stats = read_stats(path)?;
            writeln!(out, "{}", stats.mix)?;
            writeln!(
                out,
                "data footprint: {} KB in {} lines",
                stats.data_footprint_bytes() / 1024,
                stats.data_lines
            )?;
            writeln!(
                out,
                "code footprint: {} KB in {} lines",
                stats.code_footprint_bytes() / 1024,
                stats.code_lines
            )?;
            writeln!(
                out,
                "taken conditional branches: {} of {}",
                stats.taken_cond, stats.mix.cond_branches
            )?;
        }
        Some("dump") => {
            let (path, count) = match args {
                [_, path] => (path, 40usize),
                [_, path, n] => (path, n.parse().unwrap_or_else(|_| usage())),
                _ => usage(),
            };
            dump(path, count, out)?;
        }
        Some("info") => {
            let [_, path] = args else { usage() };
            info(path, out)?;
        }
        Some("import") => {
            let [_, input, output] = args else { usage() };
            let text = std::fs::read_to_string(input).map_err(ctx("open", input))?;
            let insts = parse_listing(&text).map_err(|e| CliError {
                context: format!("cannot import {input}"),
                cause: CliCause::Parse(e),
            })?;
            write_trace(output, insts.iter().copied())?;
            writeln!(
                out,
                "imported {} instructions: {input} -> {output}",
                insts.len()
            )?;
        }
        _ => usage(),
    }
    Ok(())
}

/// Folds every chunk of a trace into its statistics, one chunk at a
/// time; the streaming reader still checks every frame, the footer and
/// the end of the file.
fn read_stats(path: &str) -> Result<TraceStats, CliError> {
    let file = File::open(path).map_err(ctx("open", path))?;
    let mut trace =
        chunked::ChunkedTrace::new(BufReader::new(file)).map_err(ctx("read trace", path))?;
    let mut failed = None;
    let chunks = std::iter::from_fn(|| {
        trace.next_chunk().unwrap_or_else(|e| {
            failed = Some(e);
            None
        })
    });
    let stats = chunks
        .flat_map(|c| (0..c.len()).map(move |i| c.get(i)))
        .collect();
    match failed {
        Some(e) => Err(ctx("read trace", path)(e)),
        None => Ok(stats),
    }
}

/// Prints the first `count` instructions, decoding only the chunks that
/// hold them, then how many more the footer index counts.
fn dump(path: &str, count: usize, out: &mut impl Write) -> Result<(), CliError> {
    let file = File::open(path).map_err(ctx("open", path))?;
    let mut r = BufReader::new(file);
    let index = chunked::read_index(&mut r).map_err(ctx("read trace", path))?;
    let mut left = count;
    for k in 0..index.chunks.len() {
        if left == 0 {
            break;
        }
        let chunk = chunked::read_chunk_at(&mut r, &index, k).map_err(ctx("read trace", path))?;
        let n = chunk.len().min(left);
        for i in 0..n {
            writeln!(out, "{}", chunk.get(i))?;
        }
        left -= n;
    }
    if index.total_insts > count as u64 {
        writeln!(out, "... ({} more)", index.total_insts - count as u64)?;
    }
    Ok(())
}

/// Prints container-level details from the footer index, without
/// decoding payloads.
fn info(path: &str, out: &mut impl Write) -> Result<(), CliError> {
    let file_bytes = std::fs::metadata(path).map_err(ctx("stat", path))?.len();
    let file = File::open(path).map_err(ctx("open", path))?;
    let index =
        chunked::read_index(&mut BufReader::new(file)).map_err(ctx("read index of", path))?;
    writeln!(out, "format:       v2 chunked (delta+varint columns)")?;
    writeln!(out, "instructions: {}", index.total_insts)?;
    writeln!(
        out,
        "chunks:       {} (cap {} insts)",
        index.chunks.len(),
        index.chunk_cap
    )?;
    writeln!(out, "file bytes:   {file_bytes}")?;
    if index.total_insts > 0 {
        let b_per = file_bytes as f64 / index.total_insts as f64;
        writeln!(out, "bytes/inst:   {b_per:.2}")?;
    }
    Ok(())
}

// ----- text-listing import ----------------------------------------------

/// Parses the whole listing; errors carry the 1-based line number.
fn parse_listing(text: &str) -> Result<Vec<Inst>, String> {
    let mut insts = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        insts.push(parse_line(line).map_err(|e| format!("line {}: {e}", n + 1))?);
    }
    Ok(insts)
}

/// Parses one `<pc> <op> [key=value ...]` line.
fn parse_line(line: &str) -> Result<Inst, String> {
    let mut fields = line.split_whitespace();
    let pc = parse_num(fields.next().ok_or("missing pc")?)?;
    let op = fields.next().ok_or("missing op")?;
    let mut kv = Fields::default();
    for f in fields {
        let (k, v) = f
            .split_once('=')
            .ok_or_else(|| format!("bad field '{f}'"))?;
        kv.set(k, v)?;
    }
    let inst = match op {
        "alu" => Inst::alu(pc, kv.srcs.as_deref().unwrap_or_default(), kv.reg("dst")?),
        "load" => Inst::load(pc, kv.reg("base")?, 0, kv.reg("dst")?, kv.num("addr")?)
            .with_value(kv.val.unwrap_or(0)),
        "store" => Inst::store(pc, kv.reg("base")?, 0, kv.reg("src")?, kv.num("addr")?),
        "prefetch" => Inst::prefetch(pc, kv.reg("base")?, kv.num("addr")?),
        "branch" => Inst::cond_branch(
            pc,
            kv.reg("cond")?,
            kv.num("taken")? != 0,
            kv.num("target")?,
        ),
        "call" => Inst::call(pc, kv.num("target")?),
        "ret" => Inst::ret(pc, kv.num("target")?),
        "indirect" => Inst::indirect(pc, kv.reg("base")?, kv.num("target")?),
        "casa" => Inst::casa(
            pc,
            kv.reg("base")?,
            kv.reg("cmp")?,
            kv.reg("swap")?,
            kv.reg("dst")?,
            kv.num("addr")?,
        )
        .with_value(kv.val.unwrap_or(0)),
        "membar" => Inst::membar(pc),
        "nop" => Inst::nop(pc),
        other => return Err(format!("unknown op '{other}'")),
    };
    Ok(inst)
}

/// Key=value fields of one listing line, each key at most once.
#[derive(Default)]
struct Fields {
    srcs: Option<Vec<Reg>>,
    regs: Vec<(&'static str, Reg)>,
    nums: Vec<(&'static str, u64)>,
    val: Option<u64>,
}

const REG_KEYS: [&str; 6] = ["dst", "base", "src", "cond", "cmp", "swap"];
const NUM_KEYS: [&str; 3] = ["addr", "target", "taken"];
/// Source-register slots of an [`Inst`].
const MAX_SRCS: usize = 3;

impl Fields {
    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let repeated = match key {
            "srcs" => self.srcs.is_some(),
            "val" => self.val.is_some(),
            _ => {
                self.regs.iter().any(|(k, _)| *k == key) || self.nums.iter().any(|(k, _)| *k == key)
            }
        };
        if repeated {
            return Err(format!("repeated field '{key}='"));
        }
        if key == "srcs" {
            let srcs = value
                .split(',')
                .map(parse_reg)
                .collect::<Result<Vec<_>, _>>()?;
            if srcs.len() > MAX_SRCS {
                return Err(format!(
                    "{} sources in 'srcs={value}' (at most {MAX_SRCS})",
                    srcs.len()
                ));
            }
            self.srcs = Some(srcs);
            return Ok(());
        }
        if key == "val" {
            self.val = Some(parse_num(value)?);
            return Ok(());
        }
        if let Some(k) = REG_KEYS.iter().find(|k| **k == key) {
            self.regs.push((k, parse_reg(value)?));
            return Ok(());
        }
        if let Some(k) = NUM_KEYS.iter().find(|k| **k == key) {
            self.nums.push((k, parse_num(value)?));
            return Ok(());
        }
        Err(format!("unknown field '{key}'"))
    }

    fn reg(&self, key: &str) -> Result<Reg, String> {
        self.regs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, r)| r)
            .ok_or_else(|| format!("missing field '{key}='"))
    }

    fn num(&self, key: &str) -> Result<u64, String> {
        self.nums
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("missing field '{key}='"))
    }
}

fn parse_reg(s: &str) -> Result<Reg, String> {
    let idx: u8 = s
        .strip_prefix('r')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("bad register '{s}'"))?;
    if idx as usize >= Reg::COUNT {
        return Err(format!("register '{s}' out of range (r0-r63)"));
    }
    Ok(Reg::int(idx))
}

fn parse_num(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad number '{s}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_parses_to_its_instruction() {
        let listing = "\
# one of each op
0x4000 alu srcs=r1,r2,r3 dst=r4
0x4004 load addr=0x80 base=r4 dst=r6 val=0x1234

0x4008 store addr=0x88 base=r4 src=r6
0x400c prefetch addr=256 base=r5  # decimal address
0x4010 branch cond=r6 taken=1 target=0x4000
0x4014 call target=0x5000
0x4018 ret target=0x401c
0x401c indirect base=r7 target=0x6000
0x4020 casa addr=0x90 base=r1 cmp=r2 swap=r3 dst=r63 val=7
0x4024 membar
0x4028 nop
0x402c alu dst=r8
";
        let r = Reg::int;
        let want = vec![
            Inst::alu(0x4000, &[r(1), r(2), r(3)], r(4)),
            Inst::load(0x4004, r(4), 0, r(6), 0x80).with_value(0x1234),
            Inst::store(0x4008, r(4), 0, r(6), 0x88),
            Inst::prefetch(0x400c, r(5), 256),
            Inst::cond_branch(0x4010, r(6), true, 0x4000),
            Inst::call(0x4014, 0x5000),
            Inst::ret(0x4018, 0x401c),
            Inst::indirect(0x401c, r(7), 0x6000),
            Inst::casa(0x4020, r(1), r(2), r(3), r(63), 0x90).with_value(7),
            Inst::membar(0x4024),
            Inst::nop(0x4028),
            Inst::alu(0x402c, &[], r(8)),
        ];
        assert_eq!(parse_listing(listing), Ok(want));
    }

    #[test]
    fn malformed_lines_are_errors_naming_their_line() {
        let cases = [
            (
                "0x4000 load addr=0x80 base=r4 dst=r6 dst=r7",
                "repeated field 'dst='",
            ),
            (
                "0x4000 alu srcs=r1 srcs=r2 dst=r3",
                "repeated field 'srcs='",
            ),
            (
                "0x4000 load addr=0x80 base=r4 dst=r6 val=1 val=2",
                "repeated field 'val='",
            ),
            (
                "0x4000 alu srcs=r1,r2,r3,r4 dst=r5",
                "4 sources in 'srcs=r1,r2,r3,r4'",
            ),
            ("0x4000 frob dst=r1", "unknown op 'frob'"),
            ("0x4000 alu srcs=r64 dst=r1", "register 'r64' out of range"),
            ("0x4000 load addr=0x8g base=r4 dst=r6", "bad number '0x8g'"),
            ("0x4000 store addr=0x80 base=r4", "missing field 'src='"),
        ];
        for (line, want) in cases {
            let listing = format!("0x3ffc nop\n# the bad line is line 3\n{line}\n0x4004 nop\n");
            let err = parse_listing(&listing).expect_err(line);
            assert!(
                err.starts_with("line 3: ") && err.contains(want),
                "{line}: got '{err}', want line 3 and '{want}'"
            );
        }
    }
}
