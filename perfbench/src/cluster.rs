//! A loopback cluster of real `sorrento-node` child processes: one
//! namespace server and three storage providers, each with a fresh
//! `data_dir`, `fast_test` timers and every other knob at its default.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sorrento_json::Json;
use sorrento_net::config::CtlConfig;
use sorrento_net::ctl;
use sorrento_sim::NodeId;

use crate::procfs::{self, ProcSample};

/// Storage providers in the cluster.
pub const PROVIDERS: usize = 3;
/// Replication factor every file is created with.
pub const REPLICATION: u32 = 2;
/// How long one stats or trace request may take.
const QUERY_TIMEOUT: Duration = Duration::from_secs(10);

/// Role of a daemon, for per-role metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The namespace server.
    Namespace,
    /// A storage provider.
    Provider,
}

/// One running daemon.
struct Node {
    id: usize,
    role: Role,
    child: Child,
    data_dir: PathBuf,
}

/// The running cluster. Dropping it kills and reaps every daemon.
pub struct Cluster {
    nodes: Vec<Node>,
    /// Control-session config for `ctl::run_script` and friends.
    pub ctl: CtlConfig,
    dir: PathBuf,
}

/// A stats snapshot of one daemon: labeled event counters and gauges.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// `labeled.event` counters (`2pc.commit`, `repair.start`, ...).
    pub events: BTreeMap<String, f64>,
    /// Gauges (`net_sent`, `net_queue_depth_max`, ...).
    pub gauges: BTreeMap<String, f64>,
}

impl NodeStats {
    fn parse(json: &str) -> Option<NodeStats> {
        let j = Json::parse(json).ok()?;
        let section = |v: Option<&Json>| -> BTreeMap<String, f64> {
            v.and_then(Json::as_obj)
                .map(|kv| {
                    kv.iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                        .collect()
                })
                .unwrap_or_default()
        };
        Some(NodeStats {
            events: section(j.get("labeled").and_then(|l| l.get("event"))),
            gauges: section(j.get("gauges")),
        })
    }

    /// An event counter (0 when never counted).
    pub fn event(&self, name: &str) -> f64 {
        self.events.get(name).copied().unwrap_or(0.0)
    }

    /// A gauge (0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }
}

impl Cluster {
    /// Start the daemons under `dir` (which must not exist yet).
    pub fn boot(node_bin: &Path, dir: &Path, seed: u64) -> io::Result<Cluster> {
        fs::create_dir_all(dir)?;
        let n = 1 + PROVIDERS;
        // Reserve every port before starting anyone, so no daemon grabs
        // a port another one was promised.
        let holders: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let addrs: Vec<String> = holders
            .iter()
            .map(|l| l.local_addr().map(|a| a.to_string()))
            .collect::<io::Result<_>>()?;
        drop(holders);
        let peers = Json::Arr(
            addrs
                .iter()
                .enumerate()
                .map(|(i, a)| Json::obj().with("id", i as u64).with("addr", a.as_str()))
                .collect(),
        );
        let mut cluster = Cluster {
            nodes: Vec::new(),
            ctl: CtlConfig::parse(
                &Json::obj()
                    .with("namespace", 0u64)
                    .with("replication", u64::from(REPLICATION))
                    .with("costs", "fast_test")
                    .with("seed", seed)
                    .with("peers", peers.clone())
                    .encode(),
            )
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?,
            dir: dir.to_path_buf(),
        };
        for (id, addr) in addrs.iter().enumerate() {
            let role = if id == 0 {
                Role::Namespace
            } else {
                Role::Provider
            };
            let data_dir = dir.join(format!("n{id}"));
            let config = Json::obj()
                .with("node_id", id as u64)
                .with(
                    "role",
                    if role == Role::Namespace {
                        "namespace"
                    } else {
                        "provider"
                    },
                )
                .with("listen", addr.as_str())
                .with("data_dir", data_dir.to_string_lossy().as_ref())
                .with("costs", "fast_test")
                .with("seed", seed.wrapping_add(id as u64))
                .with("peers", peers.clone());
            let config_path = dir.join(format!("n{id}.json"));
            fs::write(&config_path, config.encode())?;
            let log = fs::File::create(dir.join(format!("n{id}.log")))?;
            let mut command = Command::new(node_bin);
            command
                .arg(&config_path)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log);
            die_with_parent(&mut command);
            let child = command.spawn()?;
            cluster.nodes.push(Node {
                id,
                role,
                child,
                data_dir,
            });
        }
        Ok(cluster)
    }

    /// Roles of the daemons, in node order.
    pub fn roles(&self) -> Vec<Role> {
        self.nodes.iter().map(|n| n.role).collect()
    }

    /// CPU and storage counters of every daemon, in node order.
    pub fn sample(&mut self) -> io::Result<Vec<ProcSample>> {
        self.nodes
            .iter_mut()
            .map(|n| {
                if let Some(status) = n.child.try_wait()? {
                    return Err(io::Error::other(format!("node {} exited: {status}", n.id)));
                }
                procfs::sample(n.child.id())
                    .ok_or_else(|| io::Error::other(format!("node {} has no /proc entry", n.id)))
            })
            .collect()
    }

    /// A stats snapshot of every daemon, in node order.
    pub fn stats(&self) -> io::Result<Vec<NodeStats>> {
        self.nodes
            .iter()
            .map(|n| {
                let json = ctl::fetch_stats(&self.ctl, NodeId::from_index(n.id), QUERY_TIMEOUT)
                    .map_err(|e| io::Error::other(format!("stats of node {}: {e}", n.id)))?;
                NodeStats::parse(&json)
                    .ok_or_else(|| io::Error::other(format!("node {} sent unreadable stats", n.id)))
            })
            .collect()
    }

    /// Every daemon's whole flight ring as JSON, in node order.
    pub fn traces(&self) -> io::Result<Vec<String>> {
        self.nodes
            .iter()
            .map(|n| {
                ctl::fetch_trace(&self.ctl, NodeId::from_index(n.id), 0, QUERY_TIMEOUT)
                    .map_err(|e| io::Error::other(format!("trace of node {}: {e}", n.id)))
            })
            .collect()
    }

    /// Bytes under every daemon's `data_dir`.
    pub fn data_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| tree_bytes(&n.data_dir)).sum()
    }

    /// Wait until the daemons' disk writes and repair/migration counters
    /// stop moving: `quiet` of unchanged samples in a row, polled every
    /// `poll`, giving up after `cap`. Returns the cluster's CPU in ms per
    /// second over the final quiet window.
    pub fn quiesce(&mut self, poll: Duration, quiet: u32, cap: Duration) -> io::Result<f64> {
        let start = Instant::now();
        loop {
            let window_start = Instant::now();
            let first = self.sample()?;
            let events_before = self.background_events()?;
            let mut calm = 0;
            let mut last = first.clone();
            while calm < quiet {
                std::thread::sleep(poll);
                let now = self.sample()?;
                let wrote = now
                    .iter()
                    .zip(&last)
                    .any(|(a, b)| a.write_bytes != b.write_bytes);
                last = now;
                if wrote {
                    break;
                }
                calm += 1;
            }
            let settled = calm == quiet && self.background_events()? == events_before;
            if settled || start.elapsed() > cap {
                let cpu_ms: f64 = last
                    .iter()
                    .zip(&first)
                    .map(|(a, b)| a.since(b).cpu_ms())
                    .sum();
                return Ok(cpu_ms / window_start.elapsed().as_secs_f64());
            }
        }
    }

    /// Repair and migration counters summed over the cluster.
    fn background_events(&self) -> io::Result<[u64; 3]> {
        let mut out = [0u64; 3];
        for s in self.stats()? {
            out[0] += s.event("repair.start") as u64;
            out[1] += s.event("repair.done") as u64;
            out[2] += s.event("migration") as u64;
        }
        Ok(out)
    }

    /// Kill and reap every daemon, then remove the cluster's directory.
    pub fn stop(mut self) -> io::Result<()> {
        self.kill_all();
        fs::remove_dir_all(&self.dir)
    }

    fn kill_all(&mut self) {
        for n in &mut self.nodes {
            let _ = n.child.kill();
            let _ = n.child.wait();
        }
        self.nodes.clear();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.kill_all();
    }
}

/// Have the kernel kill the child when the benchmark dies, so a killed
/// run leaves no daemons behind (on a normal exit, `Drop` reaps them).
fn die_with_parent(command: &mut Command) {
    use std::os::unix::process::CommandExt;
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: the closure runs in the forked child before exec and makes
    // one async-signal-safe system call; it touches no memory of the
    // parent's and allocates nothing.
    unsafe {
        command.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
}

/// Apparent size of every file under `dir`.
pub fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => tree_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_stats_snapshot() {
        let s = NodeStats::parse(
            r#"{"counters":{},"labeled":{"event":{"2pc.commit":3,"repair.start":1}},
                "gauges":{"net_sent":50.0,"net_queue_depth_max":2.0},"v":1}"#,
        )
        .unwrap();
        assert_eq!(s.event("2pc.commit"), 3.0);
        assert_eq!(s.event("migration"), 0.0);
        assert_eq!(s.gauge("net_sent"), 50.0);
    }
}
