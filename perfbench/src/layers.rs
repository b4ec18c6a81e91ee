//! Per-layer metrics of a traced run, measured from outside each layer:
//! the client's own records, the taps' stimulus spans, the storage
//! wrappers' spans, send/receive pairing per directed link, codec timing
//! on messages the run sent, link counters and `/proc/self`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant as StdInstant;

use lls_primitives::wire::{decode_frame_any, encode_frame_sharded, encode_frame_stamped, Wire};
use lls_primitives::TraceEnvelope;

use crate::cluster::Phase;
use crate::run::{acked_between, latency, link_sum, median, Metric, RunData};
use crate::store::StoreOp;
use crate::sys::{self, quantile};
use crate::tap::{Link, Msg, NodeTrace, MSG_KINDS};

/// Message kinds whose codec cost is reported.
const CODEC_KINDS: [&str; 6] = [
    "ACCEPT",
    "ACCEPTED",
    "DECIDE",
    "DECIDE_ACK",
    "ALIVE",
    "LEASE_GRANT",
];

/// Message kinds whose handler time is reported (the steady-state ones).
const HANDLER_KINDS: [&str; 7] = [
    "ALIVE",
    "ACCEPT",
    "ACCEPTED",
    "DECIDE",
    "DECIDE_ACK",
    "LEASE_GRANT",
    "LEASE_ACK",
];

/// Repetitions per sampled message when timing the codec.
const CODEC_REPS: u32 = 200;

/// One paired transit: sender tap → receiver tap.
#[derive(Debug, Clone, Copy)]
struct Transit {
    from: u32,
    to: u32,
    kind: &'static str,
    start: u64,
    end: u64,
}

/// Pairs the k-th armed send on each directed link with the k-th armed
/// delivery on it. Links that dropped or reconnected while armed are
/// skipped: their indices no longer line up.
fn transits(nodes: &[NodeTrace], broken: &dyn Fn(u32, u32) -> bool) -> Vec<Transit> {
    let by_node: BTreeMap<u32, &NodeTrace> = nodes.iter().map(|n| (n.node, n)).collect();
    let mut out = Vec::new();
    for (&from, sender) in &by_node {
        for (to, sends) in sender.sends.iter().enumerate() {
            let to = to as u32;
            let Some(receiver) = by_node.get(&to) else {
                continue;
            };
            if broken(from, to) {
                continue;
            }
            let recvs: BTreeMap<u64, u64> = receiver.recvs[from as usize].iter().copied().collect();
            for &(idx, start, kind) in sends {
                if let Some(&end) = recvs.get(&idx) {
                    out.push(Transit {
                        from,
                        to,
                        kind,
                        start,
                        end,
                    });
                }
            }
        }
    }
    out
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn sorted_pairs(pairs: impl Iterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = pairs.collect();
    v.sort_unstable();
    v
}

fn q_us(v: &[u64], q: f64) -> f64 {
    quantile(v, q).unwrap_or(0) as f64 / 1e3
}

/// Mean ns per call of `f` over `reps` calls on each sample.
fn time_each<T>(samples: &[T], reps: u32, mut f: impl FnMut(&T)) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let start = StdInstant::now();
    for s in samples {
        for _ in 0..reps {
            f(std::hint::black_box(s));
        }
    }
    start.elapsed().as_nanos() as f64 / (samples.len() as f64 * f64::from(reps))
}

fn encode(msg: &Msg) -> Vec<u8> {
    // A mid-run clock value: the stamp costs what it costs in steady state.
    let env = TraceEnvelope {
        lamport: 1 << 20,
        trace_id: 0,
    };
    match msg.shard_tag() {
        Some(shard) => encode_frame_sharded(msg, shard, &env),
        None => encode_frame_stamped(msg, &env),
    }
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The per-layer metrics of a traced run, plus the span file written to
/// `out` (when given).
pub fn per_layer(data: &RunData, out: Option<&Path>) -> Vec<Metric> {
    let (b0, b1) = data.traced.as_ref().expect("a traced run");
    let (a0, a1) = (&data.slices[0], data.slices.last().expect("a window start"));
    let wall = (b1.at - b0.at).max(1);
    let secs = wall as f64 / 1e9;
    let acked = acked_between(data, b0.at, b1.at).max(1) as f64;
    let acked_untraced = acked_between(data, a0.at, a1.at).max(1) as f64;
    let cmds = &data.client.cmds;
    let traced: Vec<_> = cmds.iter().filter(|r| r.phase == Phase::Traced).collect();
    let untraced: Vec<_> = cmds.iter().filter(|r| r.phase == Phase::Window).collect();
    let lat = |rs: &[&crate::cluster::Rec]| {
        sorted(rs.iter().map(|r| latency(r, data.drained_at)).collect())
    };
    let cmd_lat = lat(&traced);
    let cmd_lat_untraced = lat(&untraced);
    let queue_wait = sorted(
        traced
            .iter()
            .filter(|r| r.release > 0)
            .map(|r| r.release - r.submit)
            .collect(),
    );
    let gen_late = sorted(
        traced
            .iter()
            .map(|r| r.submit.saturating_sub(r.due))
            .collect(),
    );

    // Transport.
    let (l0, l1) = (&b0.links, &b1.links);
    let broken = |from: u32, to: u32| {
        let (f, t) = (from as usize, to as usize);
        let before = l0[f][t];
        let after = l1[f][t];
        after.queue_drops != before.queue_drops
            || after.injected_drops != before.injected_drops
            || after.reconnects != before.reconnects
    };
    let transit = transits(&data.node_traces, &broken);
    let transit_all = sorted(transit.iter().map(|t| t.end - t.start).collect());
    let transit_of = |kind: &str| {
        sorted(
            transit
                .iter()
                .filter(|t| t.kind == kind)
                .map(|t| t.end - t.start)
                .collect(),
        )
    };
    let (s0, s1) = (link_sum(l0), link_sum(l1));

    // Protocol.
    let mut handle: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut busy: BTreeMap<u32, u64> = BTreeMap::new();
    let mut delivered: BTreeMap<&str, u64> = BTreeMap::new();
    for n in &data.node_traces {
        for s in &n.spans {
            handle.entry(s.name).or_default().push(s.end - s.start);
            *busy.entry(n.node).or_default() += s.end - s.start;
        }
        // Message spans carry the message kind, in capitals.
        for s in n
            .spans
            .iter()
            .filter(|s| s.name.starts_with(char::is_uppercase))
        {
            *delivered.entry(s.name).or_default() += 1;
        }
    }
    for v in handle.values_mut() {
        v.sort_unstable();
    }
    let handle_p50 = |name: &str| q_us(handle.get(name).map_or(&[][..], |v| v), 0.5);
    let accept_slots: BTreeMap<(u32, u64), usize> = data
        .node_traces
        .iter()
        .flat_map(|n| n.accept_slots.iter().map(|(k, v)| (*k, *v)))
        .collect();
    let leader = data
        .node_traces
        .iter()
        .max_by_key(|n| n.sent_kinds.get("ACCEPT").copied().unwrap_or(0))
        .map(|n| n.node);
    let sent = |kind: &str| -> u64 {
        data.node_traces
            .iter()
            .map(|n| n.sent_kinds.get(kind).copied().unwrap_or(0))
            .sum()
    };
    let sent_all = |kind: &str| -> u64 {
        data.node_traces
            .iter()
            .map(|n| n.sent_kinds_all.get(kind).copied().unwrap_or(0))
            .sum()
    };
    let omega_senders = data
        .node_traces
        .iter()
        .filter(|n| {
            n.sent_kinds.get("ALIVE").copied().unwrap_or(0)
                + n.sent_kinds.get("ACCUSE").copied().unwrap_or(0)
                > 0
        })
        .count();

    // Storage.
    let spans_of = |pick: &dyn Fn(StoreOp) -> bool| {
        sorted(
            data.store_spans
                .iter()
                .filter(|s| pick(s.op))
                .map(|s| s.end - s.start)
                .collect(),
        )
    };
    let appends = spans_of(&|op| matches!(op, StoreOp::Append { .. }));
    let records: usize = data
        .store_spans
        .iter()
        .map(|s| match s.op {
            StoreOp::Append { records } => records,
            _ => 0,
        })
        .sum();
    let compacts = spans_of(&|op| matches!(op, StoreOp::Compact | StoreOp::SnapshotInstall));

    // Self time per layer: handler spans minus the storage spans nested in
    // them on the same node.
    let storage_ns: u64 = data.store_spans.iter().map(|s| s.end - s.start).sum();
    let sm_ns: u64 = busy.values().sum();
    let starts: BTreeMap<u32, Vec<(u64, u64)>> = data
        .node_traces
        .iter()
        .map(|n| {
            (
                n.node,
                sorted_pairs(n.spans.iter().map(|s| (s.start, s.end))),
            )
        })
        .collect();
    let nested_ns: u64 = data
        .store_spans
        .iter()
        .filter(|st| {
            starts.get(&st.node).is_some_and(|spans| {
                let i = spans.partition_point(|&(start, _)| start <= st.start);
                i > 0 && spans[i - 1].1 >= st.end
            })
        })
        .map(|s| s.end - s.start)
        .sum();
    let transit_ns: u64 = transit.iter().map(|t| t.end - t.start).sum();
    let queue_ns: u64 = queue_wait.iter().sum();

    // Critical path of one unbatched put: request handler, Accept transit
    // and handler at a follower, Accepted transit and handler back at the
    // leader.
    let crit_us = handle_p50("request")
        + q_us(&transit_of("ACCEPT"), 0.5)
        + handle_p50("ACCEPT")
        + q_us(&transit_of("ACCEPTED"), 0.5)
        + handle_p50("ACCEPTED");
    let cmd_p50_us = q_us(&cmd_lat, 0.5);

    // Election: medians over every leader kill of the run.
    let detect_ms = median(
        data.failovers
            .iter()
            .filter_map(|f| f.agreed_at.map(|a| (a - f.killed_at) as f64 / 1e6))
            .collect(),
    );
    let takeover_ms = median(
        data.failovers
            .iter()
            .filter_map(|f| Some(f.first_ack?.saturating_sub(f.agreed_at?) as f64 / 1e6))
            .collect(),
    );

    let mut out_metrics = crate::run::speed(data);
    out_metrics.extend([
        m("client.cmd_us.p50", cmd_p50_us, "us"),
        m("client.queue_wait_us.p50", q_us(&queue_wait, 0.5), "us"),
        m("client.queue_wait_us.p99", q_us(&queue_wait, 0.99), "us"),
        m("client.retries", data.client.retries as f64, "count"),
        m("client.gen_late_us.p99", q_us(&gen_late, 0.99), "us"),
        m("wirenet.transit_us.p50", q_us(&transit_all, 0.5), "us"),
        m("wirenet.transit_us.p99", q_us(&transit_all, 0.99), "us"),
        m(
            "wirenet.queue_drops",
            (s1.queue_drops - s0.queue_drops) as f64,
            "count",
        ),
        m(
            "wirenet.reconnects",
            (s1.reconnects - s0.reconnects) as f64,
            "count",
        ),
        m(
            "proc.runq_wait_frac",
            sys::runq_wait_delta(&b0.runq, &b1.runq) as f64 / wall as f64,
            "threads",
        ),
        m("proc.threads", b0.threads as f64, "count"),
    ]);

    // Codec, timed on the messages the run sent.
    let mut samples: BTreeMap<&str, Vec<Msg>> = BTreeMap::new();
    for n in &data.node_traces {
        for (k, v) in &n.samples {
            samples.entry(k).or_default().extend(v.iter().cloned());
        }
    }
    for kind in CODEC_KINDS {
        let msgs = samples.get(kind).map_or(&[][..], |v| v);
        let frames: Vec<Vec<u8>> = msgs.iter().map(encode).collect();
        let enc = time_each(msgs, CODEC_REPS, |msg| {
            std::hint::black_box(encode(msg));
        });
        let dec = time_each(&frames, CODEC_REPS, |f| {
            std::hint::black_box(decode_frame_any::<Msg>(&f[4..]).is_ok());
        });
        let bytes = if frames.is_empty() {
            0.0
        } else {
            frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64
        };
        out_metrics.push(m(format!("wire.encode_ns.{kind}"), enc, "ns"));
        out_metrics.push(m(format!("wire.decode_ns.{kind}"), dec, "ns"));
        out_metrics.push(m(format!("wire.bytes.{kind}"), bytes, "B"));
    }

    for kind in HANDLER_KINDS {
        out_metrics.push(m(
            format!("sm.handle_us.{kind}.p50"),
            handle_p50(kind),
            "us",
        ));
    }
    for kind in MSG_KINDS {
        out_metrics.push(m(
            format!("sm.count.{kind}"),
            delivered.get(kind).copied().unwrap_or(0) as f64,
            "count",
        ));
    }
    let slots = accept_slots.len().max(1) as f64;
    out_metrics.extend([
        m("sm.request_us.p50", handle_p50("request"), "us"),
        m("sm.request_us.read.p50", handle_p50("request.read"), "us"),
        m(
            "sm.busy_frac.leader",
            leader.and_then(|l| busy.get(&l)).copied().unwrap_or(0) as f64 / wall as f64,
            "ratio",
        ),
        m(
            "consensus.cmds_per_slot",
            accept_slots.values().sum::<usize>() as f64 / slots,
            "cmds",
        ),
        m("consensus.prepares", sent_all("PREPARE") as f64, "count"),
        m("consensus.takeover_ms", takeover_ms, "ms"),
        m("storage.append_us.p50", q_us(&appends, 0.5), "us"),
        m("storage.append_us.p99", q_us(&appends, 0.99), "us"),
        m(
            "storage.flushes_per_cmd",
            appends.len() as f64 / acked,
            "flushes",
        ),
        m(
            "storage.records_per_flush",
            records as f64 / appends.len().max(1) as f64,
            "records",
        ),
        m("storage.compact_us.p99", q_us(&compacts, 0.99), "us"),
        m(
            "proc.syscw_per_cmd",
            (b1.syscw - b0.syscw) as f64 / acked,
            "syscalls",
        ),
        m("omega.alive_per_s", sent("ALIVE") as f64 / secs, "1/s"),
        m("omega.senders", omega_senders as f64, "count"),
        m("omega.detect_ms", detect_ms, "ms"),
        m(
            "omega.leader_changes",
            data.client.leader_changes as f64,
            "count",
        ),
        m(
            "self.client_queue_us_per_cmd",
            queue_ns as f64 / 1e3 / acked,
            "us",
        ),
        m(
            "self.transit_us_per_cmd",
            transit_ns as f64 / 1e3 / acked,
            "us",
        ),
        m(
            "self.sm_us_per_cmd",
            sm_ns.saturating_sub(nested_ns) as f64 / 1e3 / acked,
            "us",
        ),
        m(
            "self.storage_us_per_cmd",
            storage_ns as f64 / 1e3 / acked,
            "us",
        ),
        m("crit.sum_us", crit_us, "us"),
        m("crit.remainder_us", cmd_p50_us - crit_us, "us"),
        m(
            "trace.overhead_cmd_p50_frac",
            cmd_p50_us / q_us(&cmd_lat_untraced, 0.5).max(1e-9) - 1.0,
            "ratio",
        ),
        m(
            "trace.overhead_tput_frac",
            (acked / secs) / (acked_untraced / ((a1.at - a0.at).max(1) as f64 / 1e9)) - 1.0,
            "ratio",
        ),
    ]);

    if let Some(path) = out {
        if let Err(e) = write_spans(data, &transit, path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
    out_metrics
}

/// Most spans written per category.
const SPAN_CAP: usize = 50_000;

/// Writes the traced window's spans as tab-separated lines:
/// `name node start_ns end_ns link`.
fn write_spans(data: &RunData, transit: &[Transit], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "name\tnode\tstart_ns\tend_ns\tlink")?;
    for (i, r) in data
        .client
        .cmds
        .iter()
        .enumerate()
        .filter(|(_, r)| r.phase == Phase::Traced)
        .take(SPAN_CAP)
    {
        let seq = i + 1;
        writeln!(f, "cmd\tclient\t{}\t{}\tcmd=1:{seq}", r.due, r.reply)?;
        writeln!(
            f,
            "client.queue\tclient\t{}\t{}\tcmd=1:{seq}",
            r.submit, r.release
        )?;
    }
    for n in &data.node_traces {
        for s in n.spans.iter().take(SPAN_CAP) {
            let link = match &s.link {
                Link::None => String::new(),
                Link::Slot(shard, slot) => format!("slot={shard}:{slot}"),
                Link::Cmds(ids) => ids
                    .iter()
                    .map(|(c, q)| format!("cmd={c}:{q}"))
                    .collect::<Vec<_>>()
                    .join(","),
            };
            writeln!(
                f,
                "sm.{}\tn{}\t{}\t{}\t{link}",
                s.name, n.node, s.start, s.end
            )?;
        }
    }
    for s in data.store_spans.iter().take(SPAN_CAP) {
        writeln!(
            f,
            "storage.{:?}\tn{}\t{}\t{}\t",
            s.op, s.node, s.start, s.end
        )?;
    }
    for t in transit.iter().take(SPAN_CAP) {
        writeln!(
            f,
            "wirenet.transit.{}\tn{}->n{}\t{}\t{}\t",
            t.kind, t.from, t.to, t.start, t.end
        )?;
    }
    f.flush()
}
