//! Standalone shard worker binary, spoken to over stdin/stdout with the
//! `FLSASHD2` protocol. The `flsa` CLI embeds the same loop as its
//! `shard-worker` subcommand; this binary exists so library tests (and
//! other embedders) can shard without the full CLI.

use flsa_shard::worker::{self, WorkerFault, WorkerOptions};

fn main() {
    let mut opts = WorkerOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let result = match arg.as_str() {
            "--heartbeat-ms" => args
                .next()
                .ok_or_else(|| "--heartbeat-ms needs a value".to_string())
                .and_then(|v| {
                    v.parse::<u64>()
                        .map_err(|_| format!("bad --heartbeat-ms {v:?}"))
                })
                .map(|v| opts.heartbeat_ms = v),
            "--fault" => args
                .next()
                .ok_or_else(|| "--fault needs a value".to_string())
                .and_then(|v| WorkerFault::parse(&v))
                .map(|f| opts.fault = f),
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(detail) = result {
            eprintln!("flsa-shard-worker: {detail}");
            std::process::exit(2);
        }
    }
    std::process::exit(worker::run(&opts));
}
