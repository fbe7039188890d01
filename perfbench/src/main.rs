//! Wall-clock benchmark of a real-process Sorrento loopback cluster.
//!
//! ```text
//! perfbench --workload <smallfile-write|smallfile-read|largefile>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--node-bin <path>] [--work-dir <dir>]
//! ```
//!
//! Boots one namespace server and three storage providers as
//! `sorrento-node` child processes, preloads the workload's live set,
//! waits for the cluster to go quiet, then drives the workload through
//! one closed-loop `ctl::run_script` session at a time (one op
//! outstanding) for `--seconds` of op time. Every read, `stat` size and
//! `ls` listing is checked against the generator's model.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, from the same
//! untraced phase plus a traced phase whose flight rings are merged into
//! per-hop timings. A human-readable table goes to stderr. The exit code
//! is non-zero on any output mismatch or if the run cannot complete.

mod cluster;
mod layers;
mod procfs;
mod run;
mod stats;
mod trace;
mod workload;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use cluster::{Cluster, NodeStats, Role, PROVIDERS, REPLICATION};
use run::Phase;
use stats::{mean, median, percentile, result_line, trimmed_mean, Metrics};
use workload::{Class, Generator, Kind};

/// Full set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Concurrent control sessions that load the live set in set-up.
const PRELOAD_SESSIONS: usize = 4;
/// Most ops one untraced control session carries.
const MAX_BATCH_OPS: usize = 20_000;
/// Share of `--seconds` a traced run spends untraced (for its counters)
/// and again traced (for its hops).
const TRACED_RUN_SHARE: f64 = 0.5;
/// Ops per traced session: small enough that no flight ring (4096
/// events per node) wraps before it is pulled.
const TRACE_BATCH_OPS: usize = 200;
/// The control node id `ctl::run_script` sessions join as.
const CTL_NODE: usize = 1000;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    node_bin: PathBuf,
    work_dir: PathBuf,
}

fn usage() -> String {
    "usage: perfbench --workload <smallfile-write|smallfile-read|largefile> --seed <n> \
     --seconds <s> --trace <0|1> [--node-bin <path>] [--work-dir <dir>]"
        .into()
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut node_bin = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(usage)?;
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(usage)?),
            "--seed" => seed = Some(value.parse().map_err(|_| usage())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| usage())?),
            "--trace" => trace = Some(value == "1"),
            "--node-bin" => node_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(usage()),
        }
    }
    let node_bin = match node_bin {
        Some(p) => p,
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("sorrento-node"),
    };
    Ok(Args {
        kind: kind.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
        node_bin,
        work_dir: work_dir.unwrap_or_else(|| PathBuf::from(".bench_work")),
    })
}

/// A booted, preloaded, quiet cluster.
struct Ready {
    cluster: Cluster,
    gen: Generator,
    setup_s: f64,
    discovery_s: f64,
    idle_cpu_ms_per_s: f64,
    mismatches: u64,
}

/// Boot, preload and wait for quiet.
fn set_up(args: &Args, dir: &Path) -> io::Result<Ready> {
    let t0 = Instant::now();
    let mut cluster = Cluster::boot(&args.node_bin, dir, args.seed)?;
    let mut gen = Generator::new(args.kind, args.seed);
    let (dirs, files) = gen.preload();
    let (mut preload, _) = run::run_batch(&mut cluster, dirs, args.seed)?;
    let discovery_s = preload.discovery_s[0];
    let loaded = run::run_parallel(&cluster.ctl, files, args.seed, PRELOAD_SESSIONS)?;
    preload.ops.extend(loaded.ops);
    if preload.failed() > preload.mismatches() {
        return Err(io::Error::other(format!(
            "{} of {} preload ops failed",
            preload.failed(),
            preload.attempted()
        )));
    }
    let idle_cpu_ms_per_s = cluster.quiesce(
        std::time::Duration::from_millis(250),
        4,
        std::time::Duration::from_secs(10),
    )?;
    Ok(Ready {
        cluster,
        gen,
        setup_s: t0.elapsed().as_secs_f64(),
        discovery_s,
        idle_cpu_ms_per_s,
        mismatches: preload.mismatches(),
    })
}

/// A first guess at ops/s, for sizing the first timed batch only.
fn guess_ops_per_s(kind: Kind) -> f64 {
    match kind {
        Kind::SmallWrite | Kind::SmallRead => 150.0,
        Kind::Large => 20.0,
    }
}

/// Percentile of `samples`, or 0 when they are too few for it.
fn pct(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or(0.0)
}

/// Counter growth over a phase, summed over daemons of `role`.
fn delta(
    before: &[NodeStats],
    after: &[NodeStats],
    roles: &[Role],
    role: Option<Role>,
    f: impl Fn(&NodeStats) -> f64,
) -> f64 {
    before
        .iter()
        .zip(after)
        .zip(roles)
        .filter(|(_, r)| role.is_none_or(|want| **r == want))
        .map(|((b, a), _)| f(a) - f(b))
        .sum()
}

/// The end-to-end figures: each per-op one is the median over the run's
/// timed sessions.
fn end_to_end(m: &mut Metrics, phase: &Phase, setup_s: &[f64], live_bytes: u64) {
    m.put("setup_s", median(setup_s).unwrap_or(0.0), "s");
    m.put("ops_per_s", phase.ops_per_s(), "1/s");
    m.put(
        "mb_per_s",
        phase.session_median(|s| Some(s.moved / 1e6 / s.window_s)),
        "MB/s",
    );
    m.put(
        "cpu_ms_per_op",
        phase.session_median(|s| Some(s.cpu_ms / s.ops)),
        "ms",
    );
    m.put(
        "space_amp",
        phase.session_median(|s| Some(s.data_bytes)) / live_bytes as f64,
        "ratio",
    );
}

/// Op latency per class and over all ops: median and p99 where the run
/// holds enough samples, and the 10 % trimmed mean over all ops.
fn latency_figures(m: &mut Metrics, phase: &Phase) {
    for class in [Class::Meta, Class::Open, Class::Commit, Class::Read] {
        let v = phase.latencies(Some(class));
        m.put(format!("{}_p50_ms", class.name()), pct(&v, 0.50), "ms");
        m.put(format!("{}_p99_ms", class.name()), pct(&v, 0.99), "ms");
    }
    let all = phase.latencies(None);
    m.put("op_tmean_ms", trimmed_mean(&all, 0.1).unwrap_or(0.0), "ms");
    m.put("op_p50_ms", pct(&all, 0.50), "ms");
    m.put("op_p99_ms", pct(&all, 0.99), "ms");
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &mut Metrics,
    ready: &Ready,
    phase: &Phase,
    before: &[NodeStats],
    after: &[NodeStats],
    roles: &[Role],
    traced: &Phase,
    acc: &trace::TraceAcc,
) {
    let ops = phase.attempted() as f64;
    let lat = phase.latencies(None);
    let mean_ms = mean(&lat);
    let idle_ms = (phase.window_s * 1e3 - lat.iter().sum::<f64>()) / ops;
    let per_op_ms = 1e3 / phase.ops_per_s();
    m.put("ctl.idle_ms_per_op", idle_ms, "ms");
    m.put("ctl.mean_op_ms", mean_ms, "ms");
    m.put(
        "ctl.reconcile_share",
        ((idle_ms + mean_ms) - per_op_ms).abs() / per_op_ms,
        "ratio",
    );
    m.put("ctl.discovery_s", mean(&phase.discovery_s), "s");
    m.put("ctl.boot_discovery_s", ready.discovery_s, "s");
    // Tracing adds little to op latency (see trace.overhead_share), so
    // the class tails pool both halves of the run for samples.
    let mut both = phase.clone();
    both.ops.extend_from_slice(&traced.ops);
    latency_figures(m, &both);
    m.put(
        "error_ratio",
        both.failed() as f64 / both.attempted() as f64,
        "ratio",
    );

    m.put("client.timeouts", traced.timeouts as f64, "count");
    m.put("client.stale", traced.stale as f64, "count");
    m.put("client.conflicts", traced.conflicts as f64, "count");
    m.put("client.resends", traced.resends as f64, "count");

    let d = |role, f: &dyn Fn(&NodeStats) -> f64| delta(before, after, roles, role, f);
    m.put(
        "tcp.frames_per_op",
        d(None, &|s| s.gauge("net_sent")) / ops,
        "count",
    );
    m.put(
        "tcp.send_failures",
        d(None, &|s| s.gauge("net_send_failures")),
        "count",
    );
    m.put(
        "tcp.inbox_drops",
        d(None, &|s| s.gauge("net_dropped_inbox_full")),
        "count",
    );
    m.put(
        "tcp.epollout_waits",
        d(None, &|s| s.gauge("net_epollout_waits")),
        "count",
    );
    let depth = after
        .iter()
        .map(|s| s.gauge("net_queue_depth_max"))
        .fold(0.0, f64::max);
    m.put("tcp.queue_depth_max", depth, "count");
    for (name, event) in [
        ("2pc_prepare", "2pc.prepare"),
        ("2pc_commit", "2pc.commit"),
        ("repair_start", "repair.start"),
        ("repair_done", "repair.done"),
        ("seg_create", "seg.create"),
        ("migration", "migration"),
        ("backup_query", "loc.backup_query"),
    ] {
        let v = d(Some(Role::Provider), &|s| s.event(event)) / ops;
        m.put(format!("provider.{name}_per_op"), v, "count");
    }
    // No daemon counts location queries; the traced phase sees each one.
    let loc_queries = acc.wire_us.get("loc_query").map_or(0, Vec::len) as f64;
    m.put(
        "provider.loc_query_per_op",
        loc_queries / acc.ops.max(1) as f64,
        "count",
    );
    m.put(
        "namespace.version_check_per_op",
        d(Some(Role::Namespace), &|s| s.event("ns.version_check")) / ops,
        "count",
    );

    let role_sum = |role: Role, f: &dyn Fn(&procfs::ProcSample) -> f64| -> f64 {
        phase
            .daemons
            .iter()
            .zip(roles)
            .filter(|(_, r)| **r == role)
            .map(|(s, _)| f(s))
            .sum()
    };
    let disk = |role| role_sum(role, &|s| s.write_bytes as f64);
    let written = disk(Role::Namespace) + disk(Role::Provider);
    let user = if phase.bytes_written > 0 {
        phase.bytes_written
    } else {
        phase.bytes_read
    };
    m.put("storage.write_amp", written / user.max(1) as f64, "ratio");
    m.put(
        "storage.disk_mb_per_s.namespace",
        disk(Role::Namespace) / 1e6 / phase.session_s,
        "MB/s",
    );
    m.put(
        "storage.disk_mb_per_s.provider",
        disk(Role::Provider) / 1e6 / phase.session_s,
        "MB/s",
    );

    let cpu = |role| role_sum(role, &procfs::ProcSample::cpu_ms);
    m.put("cpu.ns_ms_per_op", cpu(Role::Namespace) / ops, "ms");
    m.put("cpu.provider_ms_per_op", cpu(Role::Provider) / ops, "ms");
    m.put("cpu.ctl_ms_per_op", phase.client_cpu_ms / ops, "ms");
    m.put("cpu.idle_ms_per_s", ready.idle_cpu_ms_per_s, "ms/s");

    for kind in trace::HOP_KINDS {
        for (layer, samples) in [("wire", &acc.wire_us), ("handler", &acc.handler_us)] {
            let v = samples.get(*kind).map(Vec::as_slice).unwrap_or(&[]);
            m.put(format!("hop.{layer}_us.{kind}.p50"), pct(v, 0.50), "us");
            m.put(format!("hop.{layer}_us.{kind}.p90"), pct(v, 0.90), "us");
        }
    }
    m.put("trace.unaccounted_share", acc.unaccounted_share(), "ratio");
    m.put("trace.ops", acc.ops as f64, "count");
    m.put("trace.ring_wraps", acc.ring_wraps as f64, "count");
    m.put(
        "trace.ops_seen_share",
        acc.ops_seen as f64 / (acc.ops.max(1)) as f64,
        "ratio",
    );
    m.put(
        "trace.overhead_share",
        1.0 - traced.ops_per_s() / phase.ops_per_s(),
        "ratio",
    );
}

/// What the traced run hands the layer microbenchmarks.
fn layer_inputs(kind: Kind, gen: &Generator) -> layers::LayerInputs {
    let files = gen.live_sizes();
    let live = gen.live_bytes();
    let provider_bytes = live * u64::from(REPLICATION) / PROVIDERS as u64;
    match kind {
        Kind::SmallWrite | Kind::SmallRead => layers::LayerInputs {
            payloads: files.clone(),
            image_bytes: (live / files.len() as u64).max(1),
            files,
            attached: true,
            provider_bytes,
        },
        Kind::Large => layers::LayerInputs {
            payloads: vec![1 << 20; 16],
            files,
            attached: false,
            provider_bytes,
            image_bytes: 1 << 20,
        },
    }
}

struct Outcome {
    metrics: Metrics,
    /// The end-to-end figures (and, untraced, the latency figures) for
    /// the human-readable table.
    table: Metrics,
    attempted: u64,
    failed: u64,
    mismatches: u64,
}

fn bench(args: &Args, work: &Path) -> io::Result<Outcome> {
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut mismatches = 0;
    let mut ready = None;
    for i in 0..setups {
        let r = set_up(args, &work.join(format!("cluster{i}")))?;
        eprintln!("perfbench: set-up {} took {:.3} s", i + 1, r.setup_s);
        setup_s.push(r.setup_s);
        mismatches += r.mismatches;
        if i + 1 < setups {
            r.cluster.stop()?;
        } else {
            ready = Some(r);
        }
    }
    let mut ready = ready.expect("at least one set-up");
    let roles = ready.cluster.roles();

    let before = ready.cluster.stats()?;
    let gen = &mut ready.gen;
    let seconds = if args.trace {
        args.seconds * TRACED_RUN_SHARE
    } else {
        args.seconds
    };
    let phase = run::run_for(
        &mut ready.cluster,
        &mut || gen.next_step(),
        args.seed,
        seconds,
        guess_ops_per_s(args.kind),
        MAX_BATCH_OPS,
        &mut |_, _| Ok(()),
    )?;
    let after = ready.cluster.stats()?;
    let live_bytes = ready.gen.live_bytes();

    let mut table = Metrics::default();
    end_to_end(&mut table, &phase, &setup_s, live_bytes);
    if !args.trace {
        latency_figures(&mut table, &phase);
        table.put(
            "error_ratio",
            phase.failed() as f64 / phase.attempted() as f64,
            "ratio",
        );
    }
    let mut metrics = Metrics::default();
    let mut attempted = phase.attempted();
    let mut failed = phase.failed();
    mismatches += phase.mismatches();

    if args.trace {
        let mut acc = trace::TraceAcc::default();
        let rate = phase.attempted() as f64 / phase.window_s;
        let gen = &mut ready.gen;
        let traced = run::run_for(
            &mut ready.cluster,
            &mut || gen.next_step(),
            args.seed,
            seconds,
            rate,
            TRACE_BATCH_OPS,
            &mut |cluster, out| {
                let rings = cluster.traces()?;
                trace::absorb(&mut acc, out, CTL_NODE, &rings);
                Ok(())
            },
        )?;
        attempted += traced.attempted();
        failed += traced.failed();
        mismatches += traced.mismatches();
        per_layer(
            &mut metrics,
            &ready,
            &phase,
            &before,
            &after,
            &roles,
            &traced,
            &acc,
        );
        let scratch = work.join("layers");
        std::fs::create_dir_all(&scratch)?;
        layers::measure(
            &layer_inputs(args.kind, &ready.gen),
            args.seed,
            &scratch,
            &mut metrics,
        )?;
    } else {
        end_to_end(&mut metrics, &phase, &setup_s, live_bytes);
    }
    ready.cluster.stop()?;
    Ok(Outcome {
        metrics,
        table,
        attempted,
        failed,
        mismatches,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if !args.node_bin.is_file() {
        eprintln!("perfbench: no daemon binary at {}", args.node_bin.display());
        return ExitCode::FAILURE;
    }
    let work = args
        .work_dir
        .join(format!("{}-{}", args.kind.name(), std::process::id()));
    let result = bench(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&args.work_dir);
    match result {
        Ok(out) => {
            eprintln!(
                "perfbench: {} seed {} ({} ops, {} failed, {} wrong)",
                args.kind.name(),
                args.seed,
                out.attempted,
                out.failed,
                out.mismatches
            );
            let extra = out
                .metrics
                .iter()
                .filter(|(name, _, _)| out.table.get(name).is_none());
            for (name, value, unit) in out.table.iter().chain(extra) {
                eprintln!("  {name:<40} {value:>14.4} {unit}");
            }
            println!(
                "{}",
                result_line(out.mismatches == 0, out.attempted, out.failed, &out.metrics)
            );
            if out.mismatches == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
