//! Driving op batches through `ctl::run_script`, checking every result
//! against the generator, and accumulating what each batch measured.

use std::io;
use std::time::{Duration, Instant};

use sorrento_net::config::CtlConfig;
use sorrento_net::ctl::{self, ScriptOutcome};
use sorrento_sim::NodeId;
use sorrento_sim::TelemetryEvent;

use crate::cluster::{Cluster, PROVIDERS};
use crate::procfs::{self, ProcSample};
use crate::stats::median;
use crate::workload::{content, Class, Expect, Planned, Step};

/// Longest one control session may run before the benchmark gives up.
const SESSION_DEADLINE: Duration = Duration::from_secs(60);

/// One checked op.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// Latency class.
    pub class: Class,
    /// Client-observed latency; `None` when the op failed.
    pub latency_ms: Option<f64>,
    /// The op succeeded but returned something the model says is wrong.
    pub mismatch: bool,
}

/// What a run of batches measured, summed over its batches.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Every op, in issue order.
    pub ops: Vec<OpOutcome>,
    /// Σ of each session's first-op-issued to last-op-done window.
    pub window_s: f64,
    /// Σ of each session's wall time, discovery included.
    pub session_s: f64,
    /// Per-session discovery time (session start to first op).
    pub discovery_s: Vec<f64>,
    /// User bytes read.
    pub bytes_read: u64,
    /// User bytes written.
    pub bytes_written: u64,
    /// Client-side version conflicts.
    pub conflicts: u64,
    /// Client events: RPC timeouts, stale-location redirects, resends.
    pub timeouts: u64,
    pub stale: u64,
    pub resends: u64,
    /// CPU of the benchmark process (the client) over the sessions.
    pub client_cpu_ms: f64,
    /// Per-daemon counter growth over the sessions, in node order.
    pub daemons: Vec<ProcSample>,
    /// One entry per timed session.
    pub sessions: Vec<SessionStats>,
}

/// What one timed session measured on its own, so that each end-to-end
/// figure can be the median over a run's sessions: a slow spell of the
/// host then shifts one session rather than the result.
#[derive(Debug, Default, Clone, Copy)]
pub struct SessionStats {
    /// Ops attempted.
    pub ops: f64,
    /// First-op-issued to last-op-done window, s.
    pub window_s: f64,
    /// User bytes read and written.
    pub moved: f64,
    /// CPU of the daemons and the client over the session.
    pub cpu_ms: f64,
    /// Bytes under the daemons' data dirs right after the session.
    pub data_bytes: f64,
}

impl Phase {
    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Ops that failed or returned wrong results.
    pub fn failed(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.latency_ms.is_none() || o.mismatch)
            .count() as u64
    }

    /// Ops that returned wrong results.
    pub fn mismatches(&self) -> u64 {
        self.ops.iter().filter(|o| o.mismatch).count() as u64
    }

    /// Latencies of successful ops, optionally of one class.
    pub fn latencies(&self, class: Option<Class>) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| class.is_none_or(|c| o.class == c))
            .filter_map(|o| o.latency_ms)
            .collect()
    }

    /// Median over sessions of `f`, skipping sessions where it is `None`.
    pub fn session_median(&self, f: impl Fn(&SessionStats) -> Option<f64>) -> f64 {
        let values: Vec<f64> = self.sessions.iter().filter_map(f).collect();
        median(&values).unwrap_or(0.0)
    }

    /// Median over sessions of ops per second of op window.
    pub fn ops_per_s(&self) -> f64 {
        self.session_median(|s| Some(s.ops / s.window_s))
    }

    fn absorb(&mut self, other: Phase) {
        self.ops.extend(other.ops);
        self.sessions.extend(other.sessions);
        self.window_s += other.window_s;
        self.session_s += other.session_s;
        self.discovery_s.extend(other.discovery_s);
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.conflicts += other.conflicts;
        self.timeouts += other.timeouts;
        self.stale += other.stale;
        self.resends += other.resends;
        self.client_cpu_ms += other.client_cpu_ms;
        if self.daemons.is_empty() {
            self.daemons = other.daemons;
        } else {
            for (a, b) in self.daemons.iter_mut().zip(other.daemons) {
                a.cpu_ticks += b.cpu_ticks;
                a.write_bytes += b.write_bytes;
            }
        }
    }
}

/// Whether a returned listing (newline-joined names) holds exactly
/// `want` (sorted).
fn listing_matches(data: &[u8], want: &[String]) -> bool {
    let mut got: Vec<&str> = std::str::from_utf8(data)
        .map(|s| s.split('\n').filter(|n| !n.is_empty()).collect())
        .unwrap_or_default();
    got.sort_unstable();
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| *a == b)
}

/// Check a finished session's records against the plan.
fn check(planned: &[Planned], out: &ScriptOutcome, seed: u64) -> Vec<OpOutcome> {
    let mut latencies = out.stats.latencies.iter();
    let mut records = out.records.iter();
    planned
        .iter()
        .map(|p| {
            let failed = OpOutcome {
                class: p.class,
                latency_ms: None,
                mismatch: false,
            };
            let Some(r) = records.next() else {
                return failed;
            };
            if r.kind != p.op.kind() {
                return OpOutcome {
                    mismatch: true,
                    ..failed
                };
            }
            if let Some(e) = &r.error {
                eprintln!("perfbench: {} failed: {e:?}", r.kind);
                return failed;
            }
            let latency = latencies.next().map(|(_, d)| d.as_nanos() as f64 / 1e6);
            let correct = match &p.expect {
                Expect::Ok | Expect::Written { .. } => true,
                &Expect::Data { fid, offset, len } => {
                    r.data.as_deref() == Some(&content(seed, fid, offset, len)[..])
                }
                &Expect::Size(n) => r.bytes == n,
                Expect::Listing(names) => {
                    r.data.as_deref().is_some_and(|d| listing_matches(d, names))
                }
            };
            if !correct {
                eprintln!("perfbench: {} returned a wrong result", r.kind);
            }
            OpOutcome {
                class: p.class,
                latency_ms: latency,
                mismatch: !correct,
            }
        })
        .collect()
}

/// Run `planned` as one control session.
fn session(ctl: &CtlConfig, planned: &[Planned], seed: u64) -> io::Result<ScriptOutcome> {
    let ops = planned.iter().map(|p| p.materialize(seed)).collect();
    ctl::run_script(ctl, ops, PROVIDERS, SESSION_DEADLINE)
        .map_err(|e| io::Error::other(format!("control session: {e}")))
}

/// What a finished session measured, without process counters.
fn summarize(planned: &[Planned], out: &ScriptOutcome, seed: u64, session_s: f64) -> Phase {
    let stats = &out.stats;
    let (started, finished) = match (stats.started_at, stats.finished_at) {
        (Some(s), Some(f)) => (s.nanos(), f.nanos()),
        _ => (0, 0),
    };
    let window_s = finished.saturating_sub(started) as f64 / 1e9;
    let moved = (stats.bytes_read + stats.bytes_written) as f64;
    let mut phase = Phase {
        ops: check(planned, out, seed),
        sessions: vec![SessionStats {
            ops: planned.len() as f64,
            window_s,
            moved,
            ..SessionStats::default()
        }],
        window_s,
        session_s,
        discovery_s: vec![started as f64 / 1e9],
        bytes_read: stats.bytes_read,
        bytes_written: stats.bytes_written,
        conflicts: stats.conflicts,
        ..Phase::default()
    };
    for rec in &out.events {
        match rec.ev {
            TelemetryEvent::Timeout { .. } => phase.timeouts += 1,
            TelemetryEvent::StaleLocation { .. } => phase.stale += 1,
            TelemetryEvent::RpcResend { .. } => phase.resends += 1,
            _ => {}
        }
    }
    phase
}

/// Run `steps` as one control session and check every result.
pub fn run_batch(
    cluster: &mut Cluster,
    steps: Vec<Step>,
    seed: u64,
) -> io::Result<(Phase, ScriptOutcome)> {
    let planned: Vec<Planned> = steps.into_iter().flatten().collect();
    let me = std::process::id();
    let client_before = procfs::sample(me).unwrap_or_default();
    let daemons_before = cluster.sample()?;
    let t0 = Instant::now();
    let out = session(&cluster.ctl, &planned, seed)?;
    let session_s = t0.elapsed().as_secs_f64();
    let daemons_after = cluster.sample()?;
    let client_after = procfs::sample(me).unwrap_or_default();
    let mut phase = Phase {
        client_cpu_ms: client_after.since(&client_before).cpu_ms(),
        daemons: daemons_after
            .iter()
            .zip(&daemons_before)
            .map(|(a, b)| a.since(b))
            .collect(),
        ..summarize(&planned, &out, seed, session_s)
    };
    let session = &mut phase.sessions[0];
    session.cpu_ms =
        phase.client_cpu_ms + phase.daemons.iter().map(ProcSample::cpu_ms).sum::<f64>();
    session.data_bytes = cluster.data_bytes() as f64;
    Ok((phase, out))
}

/// Run `steps` (which must not depend on each other) as `sessions`
/// concurrent control sessions, each under its own control node id, and
/// check every result. For loading data, not for timing.
pub fn run_parallel(
    ctl: &CtlConfig,
    steps: Vec<Step>,
    seed: u64,
    sessions: usize,
) -> io::Result<Phase> {
    let mut shares: Vec<Vec<Planned>> = vec![Vec::new(); sessions];
    for (i, step) in steps.into_iter().enumerate() {
        shares[i % sessions].extend(step);
    }
    let results: Vec<io::Result<Phase>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .enumerate()
            .filter(|(_, share)| !share.is_empty())
            .map(|(i, share)| {
                let mut ctl = ctl.clone();
                ctl.ctl_id = NodeId::from_index(ctl.ctl_id.index() + 1 + i);
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let out = session(&ctl, share, seed)?;
                    Ok(summarize(share, &out, seed, t0.elapsed().as_secs_f64()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("control session thread panicked"))
            .collect()
    });
    let mut total = Phase::default();
    for phase in results {
        total.absorb(phase?);
    }
    Ok(total)
}

/// Op time each timed session aims at. Rates are reported as the
/// median over sessions, so a slow spell of the host shifts one session's
/// rate rather than the result.
const CHUNK_S: f64 = 2.0;

/// Run timed sessions of about [`CHUNK_S`] of op time each until their
/// op windows add up to `seconds`.
///
/// The first session is sized from `guess_ops_per_s`, later ones from
/// the rate measured so far, each holding at most `max_ops` ops.
/// `after_batch` sees every session (the traced run pulls flight rings
/// there).
pub fn run_for(
    cluster: &mut Cluster,
    next_step: &mut dyn FnMut() -> Step,
    seed: u64,
    seconds: f64,
    guess_ops_per_s: f64,
    max_ops: usize,
    after_batch: &mut dyn FnMut(&mut Cluster, &ScriptOutcome) -> io::Result<()>,
) -> io::Result<Phase> {
    // Sessions whose ops fail fast add little op time; give up rather
    // than loop past any sane run length.
    let give_up = Instant::now() + Duration::from_secs_f64(seconds * 3.0 + 30.0);
    let mut total = Phase::default();
    while total.window_s < seconds * 0.95 {
        if Instant::now() > give_up {
            return Err(io::Error::other(format!(
                "only {:.1} s of op time in {:.0} s of sessions",
                total.window_s,
                seconds * 3.0 + 30.0
            )));
        }
        let rate = if total.window_s > 0.0 {
            total.ops.len() as f64 / total.window_s
        } else {
            guess_ops_per_s
        };
        let want = CHUNK_S.min(seconds - total.window_s);
        let want_ops = ((rate * want) as usize).clamp(1, max_ops);
        let mut steps = Vec::new();
        let mut n = 0;
        while n < want_ops {
            let step = next_step();
            n += step.len();
            steps.push(step);
        }
        let (phase, out) = run_batch(cluster, steps, seed)?;
        eprintln!(
            "perfbench: session of {} ops in {:.3} s of op time",
            phase.ops.len(),
            phase.window_s
        );
        after_batch(cluster, &out)?;
        total.absorb(phase);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing_order_does_not_matter_but_names_do() {
        let want = vec!["a".to_string(), "b".to_string()];
        assert!(listing_matches(b"b\na", &want));
        assert!(listing_matches(b"a\nb\n", &want));
        assert!(!listing_matches(b"a", &want));
        assert!(!listing_matches(b"a\nb\nc", &want));
        assert!(!listing_matches(b"a\nc", &want));
    }
}
