//! Standalone shard worker binary, spoken to over stdin/stdout with the
//! `FLSASHD2` protocol. The `flsa` CLI embeds the same loop as its
//! `shard-worker` subcommand; this binary exists so library tests (and
//! other embedders) can shard without the full CLI.

use flsa_shard::worker::{self, WorkerOptions};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match WorkerOptions::parse_args(&args) {
        Ok(opts) => std::process::exit(worker::run(&opts)),
        Err(detail) => {
            eprintln!("flsa-shard-worker: {detail}");
            std::process::exit(2);
        }
    }
}
