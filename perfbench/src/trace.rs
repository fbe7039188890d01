//! Per-hop timing from merged flight rings.
//!
//! The client's session events and every daemon's ring are placed on
//! one wall-clock timeline (`epoch_unix_ns + at_ns`). Most message kinds
//! carry no span, but the client keeps one op outstanding, so an op is
//! everything between its start and end events. Within a session:
//!
//! * a *wire* hop runs from a `msg.send` to the receiver's first
//!   unmatched `msg.recv` of that kind from that sender at or after it:
//!   encode, socket, decode and inbox dwell;
//! * a *handler* hop runs from that `msg.recv` to the receiver's next
//!   send of the reply (`<kind>_r`) to the sender, or of a message with
//!   the same nonzero span;
//! * a reply to the client runs from the daemon's `msg.send` to the
//!   client's next event (the client records no receive).
//!
//! The union of the hops on an op's behalf, clipped to its start..end
//! window, is the time the hops account for; the rest is client-side
//! time between events and anything the rings missed.

use std::collections::{BTreeMap, HashMap};

use sorrento_json::Json;
use sorrento_net::ctl::ScriptOutcome;
use sorrento_sim::TelemetryEvent;

/// Message kinds the per-hop metrics are reported for.
pub const HOP_KINDS: &[&str] = &[
    "ns_lookup",
    "ns_create",
    "ns_mkdir",
    "ns_remove",
    "ns_list",
    "ns_rename",
    "commit_begin",
    "commit_end",
    "create_shadow",
    "write_shadow",
    "prepare",
    "commit",
    "read_seg",
    "loc_query",
    "fetch_seg",
];

/// Clock slack when matching a receive to its send: every process
/// stamps events from its own boot-time wall clock plus a monotonic
/// offset, so two processes can disagree by a few microseconds.
const SKEW_NS: u64 = 200_000;

/// One `msg.send` or `msg.recv`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MsgEv {
    t: u64,
    /// The recording node.
    node: usize,
    /// The other end: receiver of a send, sender of a receive.
    peer: usize,
    kind: String,
    span: u64,
    send: bool,
}

/// Hop samples and coverage accumulated over traced batches.
#[derive(Debug, Default, Clone)]
pub struct TraceAcc {
    /// Wire-hop durations (µs) by message kind.
    pub wire_us: BTreeMap<String, Vec<f64>>,
    /// Handler-hop durations (µs) by message kind.
    pub handler_us: BTreeMap<String, Vec<f64>>,
    /// Σ op latency (ns) of ops with both start and end events.
    pub latency_ns: f64,
    /// Σ of the part of that latency the hops cover (ns).
    pub covered_ns: f64,
    /// Ops traced.
    pub ops: u64,
    /// Ops whose start and end events were both found.
    pub ops_seen: u64,
    /// Daemon rings that had wrapped past a session's start when pulled.
    pub ring_wraps: u64,
}

impl TraceAcc {
    /// Share of traced op latency no hop accounts for.
    pub fn unaccounted_share(&self) -> f64 {
        if self.latency_ns > 0.0 {
            1.0 - self.covered_ns / self.latency_ns
        } else {
            0.0
        }
    }
}

fn node_of(token: &str) -> Option<usize> {
    token.strip_prefix('n')?.parse().ok()
}

/// `key=value` from an event's text form.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
}

/// The message events of one daemon's ring (`TraceR` JSON) at or after
/// `since`. Returns false when the ring no longer reaches back to
/// `since` (it wrapped) or cannot be read.
fn daemon_events(json: &str, since: u64, out: &mut Vec<MsgEv>) -> bool {
    let Ok(j) = Json::parse(json) else {
        return false;
    };
    let Some(node) = j.get("node").and_then(Json::as_u64) else {
        return false;
    };
    let Some(events) = j.get("events").and_then(Json::as_arr) else {
        return false;
    };
    let dropped = j.get("dropped").and_then(Json::as_u64).unwrap_or(0);
    let oldest = events
        .first()
        .and_then(|e| e.get("unix_ns"))
        .and_then(Json::as_u64);
    if dropped > 0 && oldest.is_some_and(|t| t > since) {
        return false;
    }
    for e in events {
        let (Some(kind), Some(text), Some(t)) = (
            e.get("kind").and_then(Json::as_str),
            e.get("text").and_then(Json::as_str),
            e.get("unix_ns").and_then(Json::as_u64),
        ) else {
            continue;
        };
        let (send, peer_key) = match kind {
            "msg.send" => (true, "to"),
            "msg.recv" => (false, "from"),
            _ => continue,
        };
        let (Some(msg), Some(peer)) =
            (field(text, "kind"), field(text, peer_key).and_then(node_of))
        else {
            continue;
        };
        if t + SKEW_NS >= since {
            out.push(MsgEv {
                t,
                node: node as usize,
                peer,
                kind: msg.to_string(),
                span: e.get("span").and_then(Json::as_u64).unwrap_or(0),
                send,
            });
        }
    }
    true
}

/// Length of the union of `intervals` (sorted by start) clipped to
/// `lo..hi`.
fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let (mut total, mut reach) = (0, lo);
    for &(a, b) in intervals {
        if a >= hi {
            break;
        }
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Fold one traced session into `acc`: its client events plus the
/// daemons' rings (`TraceR` JSON per daemon) fetched right after it.
pub fn absorb(acc: &mut TraceAcc, out: &ScriptOutcome, ctl_node: usize, rings: &[String]) {
    let mut starts: HashMap<u64, u64> = HashMap::new();
    let mut ops: Vec<(u64, u64)> = Vec::new();
    let mut msgs: Vec<MsgEv> = Vec::new();
    for rec in &out.events {
        let t = out.epoch_unix_ns + rec.at.nanos();
        match rec.ev {
            TelemetryEvent::OpStart { span, .. } => {
                starts.insert(span, t);
            }
            TelemetryEvent::OpEnd { span, .. } => {
                if let Some(s) = starts.remove(&span) {
                    ops.push((s, t));
                }
            }
            TelemetryEvent::MsgSend { span, kind, to } => msgs.push(MsgEv {
                t,
                node: ctl_node,
                peer: to.index(),
                kind: kind.to_string(),
                span,
                send: true,
            }),
            _ => {}
        }
    }
    acc.ops += out.records.len() as u64;
    acc.ops_seen += ops.len() as u64;
    let Some(since) = ops.iter().map(|o| o.0).min() else {
        return;
    };
    for ring in rings {
        if !daemon_events(ring, since, &mut msgs) {
            acc.ring_wraps += 1;
        }
    }
    msgs.sort_by_key(|m| m.t);
    let client_times: Vec<u64> = msgs
        .iter()
        .filter(|m| m.node == ctl_node)
        .map(|m| m.t)
        .chain(ops.iter().map(|o| o.1))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let intervals = hops(&msgs, ctl_node, &client_times, acc);
    for (s, e) in ops {
        acc.latency_ns += e.saturating_sub(s) as f64;
        acc.covered_ns += covered(&intervals, s, e) as f64;
    }
}

/// Record wire and handler hops over one session's time-sorted message
/// events; return the sorted intervals that count toward op coverage:
/// hops of client requests and their spans, and replies to the client.
fn hops(
    msgs: &[MsgEv],
    ctl_node: usize,
    client_times: &[u64],
    acc: &mut TraceAcc,
) -> Vec<(u64, u64)> {
    // Receives by (receiver, kind, sender), in time order, with a cursor
    // past those already matched or too early for any later send.
    let mut recvs: HashMap<(usize, &str, usize), (Vec<usize>, usize)> = HashMap::new();
    for (i, m) in msgs.iter().enumerate().filter(|(_, m)| !m.send) {
        recvs
            .entry((m.node, m.kind.as_str(), m.peer))
            .or_default()
            .0
            .push(i);
    }
    let mut intervals = Vec::new();
    for m in msgs.iter().filter(|m| m.send) {
        let for_op = m.node == ctl_node || m.span != 0;
        if m.peer == ctl_node {
            if m.kind.ends_with("_r") {
                let next = client_times.partition_point(|&t| t < m.t);
                if let Some(&t) = client_times.get(next) {
                    intervals.push((m.t, t));
                }
            }
            continue;
        }
        let Some((queue, cursor)) = recvs.get_mut(&(m.peer, m.kind.as_str(), m.node)) else {
            continue;
        };
        while *cursor < queue.len() && msgs[queue[*cursor]].t + SKEW_NS < m.t {
            *cursor += 1;
        }
        let Some(&j) = queue.get(*cursor) else {
            continue;
        };
        *cursor += 1;
        let recv = &msgs[j];
        let arrive = recv.t.max(m.t);
        acc.wire_us
            .entry(m.kind.clone())
            .or_default()
            .push((arrive - m.t) as f64 / 1e3);
        let reply = format!("{}_r", m.kind);
        let answer = msgs[j + 1..].iter().find(|n| {
            n.send
                && n.node == recv.node
                && ((n.peer == recv.peer && n.kind == reply)
                    || (recv.span != 0 && n.span == recv.span))
        });
        if let Some(n) = answer {
            acc.handler_us
                .entry(m.kind.clone())
                .or_default()
                .push((n.t - recv.t) as f64 / 1e3);
        }
        if for_op {
            intervals.push((m.t, arrive));
            if let Some(n) = answer {
                intervals.push((recv.t, n.t));
            }
        }
    }
    intervals.sort_unstable();
    intervals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, node: usize, peer: usize, kind: &str, span: u64, send: bool) -> MsgEv {
        MsgEv {
            t,
            node,
            peer,
            kind: kind.into(),
            span,
            send,
        }
    }

    #[test]
    fn union_of_overlapping_intervals() {
        assert_eq!(covered(&[(0, 10), (5, 20), (30, 40)], 0, 100), 30);
        assert_eq!(covered(&[(0, 10), (5, 20)], 8, 15), 7);
        assert_eq!(covered(&[], 0, 10), 0);
    }

    #[test]
    fn wire_handler_and_reply_hops() {
        // client 9 -> ns 0: wire 100..150, handler 150..170, reply to the
        // client 170..200 (the client's next event).
        let msgs = vec![
            ev(100, 9, 0, "ns_create", 0, true),
            ev(150, 0, 9, "ns_create", 0, false),
            ev(160, 0, 3, "heartbeat", 0, true),
            ev(170, 0, 9, "ns_create_r", 0, true),
        ];
        let mut acc = TraceAcc::default();
        let iv = hops(&msgs, 9, &[100, 200], &mut acc);
        assert_eq!(acc.wire_us["ns_create"], vec![0.05]);
        assert_eq!(acc.handler_us["ns_create"], vec![0.02]);
        assert_eq!(covered(&iv, 90, 200), 100);
    }

    #[test]
    fn fan_out_matches_each_receiver_once_in_order() {
        let msgs = vec![
            ev(100, 9, 1, "prepare", 7, true),
            ev(101, 9, 2, "prepare", 7, true),
            ev(130, 2, 9, "prepare", 7, false),
            ev(160, 1, 9, "prepare", 7, false),
            ev(300, 9, 1, "prepare", 8, true),
            ev(340, 1, 9, "prepare", 8, false),
        ];
        let mut acc = TraceAcc::default();
        hops(&msgs, 9, &[], &mut acc);
        assert_eq!(acc.wire_us["prepare"], vec![0.06, 0.029, 0.04]);
    }

    #[test]
    fn background_traffic_is_timed_but_not_charged_to_ops() {
        let msgs = vec![
            ev(100, 1, 2, "fetch_seg", 0, true),
            ev(120, 2, 1, "fetch_seg", 0, false),
        ];
        let mut acc = TraceAcc::default();
        let iv = hops(&msgs, 9, &[], &mut acc);
        assert_eq!(acc.wire_us["fetch_seg"], vec![0.02]);
        assert!(iv.is_empty());
    }

    #[test]
    fn a_wrapped_ring_is_reported() {
        let ring = r#"{"node":1,"dropped":5,"events":[
            {"kind":"msg.recv","span":0,"text":"msg.recv span=0 kind=ns_list from=n1000","unix_ns":2000}]}"#;
        assert!(!daemon_events(ring, 1500, &mut Vec::new()));
        assert!(daemon_events(ring, 2500, &mut Vec::new()));
    }

    #[test]
    fn parses_daemon_ring_text() {
        let ring = r#"{"v":1,"node":2,"events":[
            {"kind":"msg.recv","span":7,"text":"msg.recv span=7 kind=prepare from=n1000","at_ns":5,"unix_ns":1005},
            {"kind":"msg.send","span":0,"text":"msg.send span=0 kind=prepare_r to=n1000","at_ns":9,"unix_ns":1009},
            {"kind":"2pc.prepare","span":7,"text":"2pc.prepare span=7 seg=1 ok=true","at_ns":6,"unix_ns":1006}]}"#;
        let mut out = Vec::new();
        assert!(daemon_events(ring, 1000, &mut out));
        assert_eq!(
            out,
            vec![
                ev(1005, 2, 1000, "prepare", 7, false),
                ev(1009, 2, 1000, "prepare_r", 0, true)
            ]
        );
    }
}
