//! `sz-serve` — the experiment service daemon.
//!
//! ```text
//! sz-serve [--addr HOST:PORT] [--workers N] [--queue N]
//!          [--threads N] [--cache-mb N]
//! ```
//!
//! Binds, prints `sz-serve listening on <addr>` (with the resolved
//! port, so `--addr 127.0.0.1:0` is scriptable), then serves until a
//! `shutdown` request arrives. Each connection is served on a thread
//! of its own.

use std::process::ExitCode;

use sz_serve::{Server, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: sz-serve [--addr HOST:PORT] [--workers N] [--queue N] \
         [--threads N] [--cache-mb N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        match flag.as_str() {
            "--addr" => config.addr = value,
            "--workers" => match value.parse() {
                Ok(n) if n > 0 => config.scheduler.workers = n,
                _ => return usage(),
            },
            "--queue" => match value.parse() {
                Ok(n) => config.scheduler.queue_capacity = n,
                Err(_) => return usage(),
            },
            "--threads" => match value.parse() {
                Ok(n) if n > 0 => config.scheduler.exec_threads = n,
                _ => return usage(),
            },
            "--cache-mb" => match value.parse::<usize>() {
                Ok(n) => config.scheduler.cache_budget = n << 20,
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
    }

    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("sz-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("sz-serve listening on {addr}"),
        Err(e) => {
            eprintln!("sz-serve: no local address: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = server.serve() {
        eprintln!("sz-serve: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
