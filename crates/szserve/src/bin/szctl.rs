//! `szctl` — thin client for the `sz-serve` daemon.
//!
//! ```text
//! szctl [--addr HOST:PORT] run <experiment> [options]
//! szctl [--addr HOST:PORT] status <job>
//! szctl [--addr HOST:PORT] cancel <job>
//! szctl [--addr HOST:PORT] stats
//! szctl [--addr HOST:PORT] watch
//! szctl [--addr HOST:PORT] shutdown
//! ```
//!
//! `run` options: `--bench a,b`, `--scale tiny|small|full`,
//! `--runs N`, `--seed N|0xHEX`, `--interval MS`, `--threads N`,
//! `--trace`, `--no-wait`, `--deadline MS`, `--before Ox`,
//! `--after Ox`, `--adaptive`, `--half-width X`, `--confidence X`,
//! `--band X`, `--batch N`, `--min-runs N`, `--max-runs N`,
//! `--sleep-ms N`, `--json` (raw JSONL instead of tables).
//!
//! The address defaults to `$SZ_SERVE_ADDR`, then `127.0.0.1:7457`.
//! `watch` subscribes to the server's sentinel alert stream and relays
//! alert lines as JSONL until the server goes away. Load generation
//! is the `sz-loadgen` binary's.
//!
//! Streamed trace records are always relayed raw; the terminal line is
//! pretty-printed unless `--json` is set. Exit code 0 for `result` /
//! `accepted` / single-line responses, 1 for `error` / `rejected`.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::ExitCode;

use sz_harness::report::render_table;
use sz_harness::Json;
use sz_serve::{AdaptiveParams, Experiment, Request, RunRequest, DEFAULT_ADDR};

fn usage() -> ExitCode {
    eprintln!(
        "usage: szctl [--addr HOST:PORT] \
         <run|status|cancel|stats|watch|shutdown> ...\n\
         run <experiment> [--bench a,b] [--scale tiny|small|full] [--runs N]\n\
         \x20   [--seed N] [--interval MS] [--threads N] [--trace] [--no-wait]\n\
         \x20   [--deadline MS] [--before Ox] [--after Ox] [--adaptive]\n\
         \x20   [--half-width X] [--confidence X] [--band X] [--batch N]\n\
         \x20   [--min-runs N] [--max-runs N] [--sleep-ms N] [--json]"
    );
    ExitCode::from(2)
}

enum Command {
    Request(Request),
    Watch,
}

struct Cli {
    addr: String,
    json: bool,
    command: Command,
}

fn parse_u64(value: &str) -> Option<u64> {
    if let Some(hex) = value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        value.parse().ok()
    }
}

fn parse_cli() -> Option<Cli> {
    let mut addr = std::env::var("SZ_SERVE_ADDR").unwrap_or_else(|_| DEFAULT_ADDR.to_string());
    let mut json = false;
    let mut args = std::env::args().skip(1).peekable();
    while args.peek().is_some_and(|a| a == "--addr" || a == "--json") {
        match args.next().as_deref() {
            Some("--addr") => addr = args.next()?,
            Some("--json") => json = true,
            _ => return None,
        }
    }
    let command = args.next()?;
    let command = match command.as_str() {
        "stats" => Command::Request(Request::Stats),
        "watch" => {
            // Watch output is raw JSONL either way; accept the flag
            // for symmetry with the other subcommands.
            for flag in args.by_ref() {
                match flag.as_str() {
                    "--json" => json = true,
                    _ => return None,
                }
            }
            Command::Watch
        }
        "shutdown" => Command::Request(Request::Shutdown),
        "status" => Command::Request(Request::Status {
            job: parse_u64(&args.next()?)?,
        }),
        "cancel" => Command::Request(Request::Cancel {
            job: parse_u64(&args.next()?)?,
        }),
        "run" => {
            let experiment = Experiment::from_name(&args.next()?)?;
            let mut run = RunRequest::quick(experiment);
            let mut adaptive = AdaptiveParams::default();
            let mut wants_adaptive = false;
            while let Some(flag) = args.next() {
                match flag.as_str() {
                    "--trace" => run.trace = true,
                    "--no-wait" => run.wait = false,
                    "--adaptive" => wants_adaptive = true,
                    "--json" => json = true,
                    "--bench" => {
                        run.benchmarks =
                            Some(args.next()?.split(',').map(str::to_string).collect());
                    }
                    "--scale" => {
                        let value = args.next()?;
                        // Route through the parser so scale implies
                        // its default interval, as on the wire.
                        let line = format!(
                            r#"{{"type":"run","experiment":"selftest-sleep","scale":"{value}"}}"#
                        );
                        let Ok(Request::Run(parsed)) = Request::parse(&line) else {
                            return None;
                        };
                        run.scale = parsed.scale;
                        run.interval_ms = parsed.interval_ms;
                    }
                    "--runs" => run.runs = parse_u64(&args.next()?)? as usize,
                    "--seed" => run.seed_base = parse_u64(&args.next()?)?,
                    "--interval" => run.interval_ms = args.next()?.parse().ok()?,
                    "--threads" => run.threads = Some(parse_u64(&args.next()?)? as usize),
                    "--deadline" => run.deadline_ms = Some(parse_u64(&args.next()?)?),
                    "--before" => run.before_opt = args.next()?,
                    "--after" => run.after_opt = args.next()?,
                    "--half-width" => adaptive.half_width = args.next()?.parse().ok()?,
                    "--confidence" => adaptive.confidence = args.next()?.parse().ok()?,
                    "--band" => adaptive.band = args.next()?.parse().ok()?,
                    "--batch" => adaptive.batch = parse_u64(&args.next()?)? as usize,
                    "--min-runs" => adaptive.min_runs = parse_u64(&args.next()?)? as usize,
                    "--max-runs" => adaptive.max_runs = parse_u64(&args.next()?)? as usize,
                    "--sleep-ms" => run.sleep_ms = parse_u64(&args.next()?)?,
                    _ => return None,
                }
            }
            if wants_adaptive {
                run.adaptive = Some(adaptive);
            }
            Command::Request(Request::Run(run))
        }
        _ => return None,
    };
    if args.next().is_some() {
        return None;
    }
    Some(Cli {
        addr,
        json,
        command,
    })
}

fn pretty_print(value: &Json) {
    let Json::Obj(fields) = value else {
        println!("{value}");
        return;
    };
    let rows: Vec<Vec<String>> = fields
        .iter()
        .filter(|(k, _)| k != "type")
        .map(|(k, v)| vec![k.clone(), v.to_string()])
        .collect();
    let ty = value.get("type").and_then(Json::as_str).unwrap_or("?");
    println!("[{ty}]");
    print!("{}", render_table(&["field", "value"], &rows));
}

/// Sends `request` to `addr` and relays the reply stream; returns the
/// command's exit code.
fn issue(addr: &str, request: &Request, json: bool) -> ExitCode {
    let stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("szctl: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Ok(read_half) = stream.try_clone() else {
        eprintln!("szctl: cannot clone stream");
        return ExitCode::FAILURE;
    };
    let mut writer = BufWriter::new(stream);
    if writeln!(writer, "{}", request.to_json())
        .and_then(|()| writer.flush())
        .is_err()
    {
        eprintln!("szctl: send failed");
        return ExitCode::FAILURE;
    }

    let reader = BufReader::new(read_half);
    for line in reader.lines() {
        let Ok(line) = line else {
            eprintln!("szctl: connection lost");
            return ExitCode::FAILURE;
        };
        let Ok(value) = Json::parse(&line) else {
            eprintln!("szctl: malformed response: {line}");
            return ExitCode::FAILURE;
        };
        let ty = value.get("type").and_then(Json::as_str).unwrap_or("");
        if matches!(ty, "run" | "summary") {
            // Streamed trace records: relay raw, keep reading.
            println!("{line}");
            continue;
        }
        if json {
            println!("{line}");
        } else {
            pretty_print(&value);
        }
        return if matches!(ty, "error" | "rejected") {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    eprintln!("szctl: server closed the connection without a terminal line");
    ExitCode::FAILURE
}

/// Tails the server's sentinel alert stream, relaying each pushed line
/// as raw JSONL until the server goes away.
fn watch(addr: &str) -> ExitCode {
    let stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("szctl: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if writeln!(&stream, "{}", Request::Watch.to_json()).is_err() {
        eprintln!("szctl: send failed to {addr}");
        return ExitCode::FAILURE;
    }
    // The ack, then pushed alerts.
    for line in BufReader::new(stream).lines() {
        match line {
            Ok(line) => println!("{line}"),
            Err(_) => break,
        }
    }
    // EOF means the server shut down — a clean end of watch.
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let Some(cli) = parse_cli() else {
        return usage();
    };
    let request = match cli.command {
        Command::Watch => return watch(&cli.addr),
        Command::Request(request) => request,
    };
    issue(&cli.addr, &request, cli.json)
}
