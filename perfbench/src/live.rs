//! The `live` workload: a `fuse-node` fleet on loopback driven through its
//! stdin/stdout control protocol, with node-side costs read from
//! `/proc/<pid>`.
//!
//! Four nodes connect by direct TCP with default timers. One generator
//! thread keeps four groups in flight in a closed loop: slot `i` creates a
//! group rooted at node `i` over the other three, signals it as soon as the
//! root prints `CREATED`, and starts over once every participant printed
//! `NOTIFIED`. Latencies come from the nodes' own `t_ns=` wall-clock
//! stamps against the generator's stamp taken just before each command is
//! written.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::procfs;
use crate::report::Outcome;
use crate::stats::{chunkwise_least, least, median, tail_label, Latencies};
use crate::{another_rep, Args};

/// Fleet size.
const NODES: usize = 4;
/// Lifecycles of the set-up warm-up (connections, allocator, caches).
const WARMUP: usize = 1_000;
/// Lifecycles of the measured phase.
const LIFECYCLES: usize = 5_000;
/// Lifecycles per separately timed chunk of the phase.
const CHUNK: usize = 50;
/// A lifecycle step (create or notify) not done by then has failed.
const TIMEOUT: Duration = Duration::from_secs(2);
/// Longest wait for every node's `READY`.
const READY_TIMEOUT: Duration = Duration::from_secs(20);
/// After the phase, how long stray lines (duplicate notifications) are
/// still collected.
const DRAIN: Duration = Duration::from_millis(50);
/// The tail never goes past p99: beyond it the number measures the host
/// scheduler.
const TAIL_CAP: f64 = 0.99;

/// One stdout line of a node, or its end.
enum Line {
    Text(usize, String),
    Eof(usize),
}

/// A spawned fleet. Dropping it kills and reaps every node, so no exit
/// path (error or panic) leaves a process behind.
struct Fleet {
    children: Vec<Child>,
    stdins: Vec<ChildStdin>,
    pids: Vec<String>,
    lines: Receiver<Line>,
    readers: Vec<JoinHandle<()>>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
        }
        for c in &mut self.children {
            let _ = c.wait();
        }
        // The pipes closed with the processes, so every reader ends.
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
    }
}

/// Loopback addresses with free ports, found by binding port 0.
fn free_addrs() -> Result<Vec<String>, String> {
    let listeners: Vec<TcpListener> = (0..NODES)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("no free loopback port: {e}"))?;
    listeners
        .iter()
        .map(|l| {
            l.local_addr()
                .map(|a| a.to_string())
                .map_err(|e| e.to_string())
        })
        .collect()
}

impl Fleet {
    /// Spawns the fleet and waits for every `READY` line.
    fn spawn(bin: &str, seed: u64) -> Result<Fleet, String> {
        let addrs = free_addrs()?;
        let (tx, rx) = mpsc::channel();
        let mut fleet = Fleet {
            children: Vec::new(),
            stdins: Vec::new(),
            pids: Vec::new(),
            lines: rx,
            readers: Vec::new(),
        };
        for (i, addr) in addrs.iter().enumerate() {
            let mut cmd = Command::new(bin);
            cmd.arg("--id")
                .arg(i.to_string())
                .arg("--listen")
                .arg(addr)
                .arg("--seed")
                .arg(
                    seed.wrapping_mul(NODES as u64)
                        .wrapping_add(i as u64)
                        .to_string(),
                );
            for (j, peer) in addrs.iter().enumerate().filter(|&(j, _)| j != i) {
                cmd.arg("--peer").arg(format!("{j}={peer}"));
            }
            let mut child = cmd
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("cannot start {bin}: {e}"))?;
            fleet.pids.push(child.id().to_string());
            fleet
                .stdins
                .push(child.stdin.take().expect("stdin was piped"));
            let stdout = child.stdout.take().expect("stdout was piped");
            fleet.children.push(child);
            let tx = tx.clone();
            fleet.readers.push(thread::spawn(move || {
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    if tx.send(Line::Text(i, line)).is_err() {
                        return;
                    }
                }
                let _ = tx.send(Line::Eof(i));
            }));
        }
        let deadline = Instant::now() + READY_TIMEOUT;
        let mut ready = 0;
        while ready < NODES {
            let left = deadline.saturating_duration_since(Instant::now());
            match fleet.lines.recv_timeout(left) {
                Ok(Line::Text(_, l)) if l == "READY" => ready += 1,
                Ok(Line::Text(i, l)) => return Err(format!("node {i} before READY: {l}")),
                Ok(Line::Eof(i)) => return Err(format!("node {i} exited before READY")),
                Err(_) => return Err(format!("only {ready} of {NODES} nodes READY")),
            }
        }
        Ok(fleet)
    }

    fn send(&mut self, node: usize, cmd: &str) -> Result<(), String> {
        let w = &mut self.stdins[node];
        w.write_all(cmd.as_bytes())
            .and_then(|()| w.flush())
            .map_err(|e| format!("node {node} stdin: {e}"))
    }
}

/// Wall-clock nanoseconds since the UNIX epoch: the clock of the nodes'
/// `t_ns=` stamps.
fn wall_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// A parsed `CREATED`/`NOTIFIED` line.
#[derive(Debug, PartialEq, Eq)]
enum Report {
    Created { id: String, ok: bool, t_ns: u64 },
    Notified { id: String, t_ns: u64 },
}

/// Parses one node output line; `None` for anything else.
fn parse_line(line: &str) -> Option<Report> {
    let mut words = line.split_whitespace();
    let kind = words.next()?;
    let mut fields = HashMap::new();
    for w in words {
        let (k, v) = w.split_once('=')?;
        fields.insert(k, v);
    }
    let id = fields.get("id")?.to_string();
    let t_ns = fields.get("t_ns")?.parse().ok()?;
    match kind {
        "CREATED" => Some(Report::Created {
            id,
            ok: *fields.get("result")? == "ok",
            t_ns,
        }),
        "NOTIFIED" => Some(Report::Notified { id, t_ns }),
        _ => None,
    }
}

/// What one generator slot is waiting for.
enum Slot {
    Idle,
    Creating {
        sent_ns: u64,
        deadline: Instant,
    },
    Notifying {
        id: String,
        sent_ns: u64,
        heard: [bool; NODES],
        deadline: Instant,
    },
}

/// Latencies and failures of a batch of lifecycles.
struct Batch {
    /// Create latencies (ms), each with the index of the chunk it fell in.
    create: Vec<(usize, f64)>,
    /// Notification latencies (ms), each with its chunk index.
    notify: Vec<(usize, f64)>,
    attempted: u64,
    violations: Vec<String>,
    /// Host seconds of each [`CHUNK`] of lifecycles, in order.
    chunks: Vec<f64>,
}

/// Runs `count` lifecycles in the closed loop. `done` carries the ids of
/// every finished group across batches, so a late duplicate is caught.
fn drive(fleet: &mut Fleet, count: usize, done: &mut HashSet<String>) -> Result<Batch, String> {
    let mut b = Batch {
        create: Vec::with_capacity(count),
        notify: Vec::with_capacity(count * (NODES - 1)),
        attempted: 0,
        violations: Vec::new(),
        chunks: Vec::new(),
    };
    let mut chunk_start = Instant::now();
    let mut slots: Vec<Slot> = (0..NODES).map(|_| Slot::Idle).collect();
    let mut started = 0;
    let mut finished = 0;
    while finished < count {
        // Cut at every multiple of CHUNK passed, so each batch of `count`
        // lifecycles yields the same number of chunks.
        while finished >= CHUNK * (b.chunks.len() + 1) {
            let now = Instant::now();
            b.chunks.push(now.duration_since(chunk_start).as_secs_f64());
            chunk_start = now;
        }
        for (root, slot) in slots.iter_mut().enumerate() {
            if matches!(slot, Slot::Idle) && started < count {
                let members: Vec<String> = (0..NODES)
                    .filter(|&m| m != root)
                    .map(|m| m.to_string())
                    .collect();
                let sent_ns = wall_ns();
                fleet.send(root, &format!("create {}\n", members.join(",")))?;
                *slot = Slot::Creating {
                    sent_ns,
                    deadline: Instant::now() + TIMEOUT,
                };
                started += 1;
                b.attempted += NODES as u64 + 1;
            }
        }
        let next_deadline = slots
            .iter()
            .filter_map(|s| match s {
                Slot::Idle => None,
                Slot::Creating { deadline, .. } | Slot::Notifying { deadline, .. } => {
                    Some(*deadline)
                }
            })
            .min()
            .expect("a started lifecycle is in flight");
        let wait = next_deadline.saturating_duration_since(Instant::now());
        match fleet.lines.recv_timeout(wait) {
            Ok(Line::Text(node, line)) => {
                finished += on_line(fleet, &mut slots, &mut b, done, node, &line)?;
            }
            Ok(Line::Eof(node)) => return Err(format!("node {node} exited mid-run")),
            Err(RecvTimeoutError::Timeout) => {
                let now = Instant::now();
                for (root, slot) in slots.iter_mut().enumerate() {
                    let late = match slot {
                        Slot::Creating { deadline, .. } if *deadline <= now => {
                            b.violations
                                .push(format!("create at node {root} timed out"));
                            true
                        }
                        Slot::Notifying {
                            id,
                            heard,
                            deadline,
                            ..
                        } if *deadline <= now => {
                            for (p, _) in heard.iter().enumerate().filter(|(_, h)| !**h) {
                                b.violations
                                    .push(format!("node {p} never notified of {id}"));
                            }
                            done.insert(id.clone());
                            true
                        }
                        _ => false,
                    };
                    if late {
                        *slot = Slot::Idle;
                        finished += 1;
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => return Err("every node exited".into()),
        }
    }
    b.chunks.push(chunk_start.elapsed().as_secs_f64());
    Ok(b)
}

/// Handles one output line; returns how many lifecycles it finished.
fn on_line(
    fleet: &mut Fleet,
    slots: &mut [Slot],
    b: &mut Batch,
    done: &mut HashSet<String>,
    node: usize,
    line: &str,
) -> Result<usize, String> {
    match parse_line(line) {
        Some(Report::Created { id, ok, t_ns }) => {
            let Slot::Creating { sent_ns, .. } = slots[node] else {
                b.violations
                    .push(format!("node {node}: unexpected {line:?}"));
                return Ok(0);
            };
            if !ok {
                b.violations.push(format!("node {node}: {line}"));
                slots[node] = Slot::Idle;
                return Ok(1);
            }
            b.create.push((b.chunks.len(), ms_between(sent_ns, t_ns)));
            let sent_ns = wall_ns();
            fleet.send(node, &format!("signal {id}\n"))?;
            slots[node] = Slot::Notifying {
                id,
                sent_ns,
                heard: [false; NODES],
                deadline: Instant::now() + TIMEOUT,
            };
            Ok(0)
        }
        Some(Report::Notified { id, t_ns }) => {
            let slot = slots
                .iter_mut()
                .enumerate()
                .find(|(_, s)| matches!(s, Slot::Notifying { id: sid, .. } if *sid == id));
            let Some((root, slot)) = slot else {
                let what = if done.contains(&id) {
                    "duplicate"
                } else {
                    "unexpected"
                };
                b.violations.push(format!("node {node}: {what} {line:?}"));
                return Ok(0);
            };
            let Slot::Notifying { sent_ns, heard, .. } = slot else {
                unreachable!("matched a notifying slot");
            };
            if heard[node] {
                b.violations
                    .push(format!("node {node}: duplicate {line:?}"));
                return Ok(0);
            }
            heard[node] = true;
            if node != root {
                // The signaller hears its own signal at once; Fig. 8 and
                // the sim workloads leave it out too.
                b.notify.push((b.chunks.len(), ms_between(*sent_ns, t_ns)));
            }
            if heard.iter().all(|&h| h) {
                done.insert(id);
                *slot = Slot::Idle;
                return Ok(1);
            }
            Ok(0)
        }
        None => {
            b.violations.push(format!("node {node}: unparsed {line:?}"));
            Ok(0)
        }
    }
}

fn ms_between(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e6
}

/// Fleet-wide `/proc` readings at one instant.
#[derive(Debug, Clone, Copy, Default)]
struct ProcMark {
    cpu_s: f64,
    net: procfs::Net,
    ctx_switches: u64,
    threads: u64,
    gen_cpu_s: f64,
}

fn proc_mark(fleet: &Fleet, per_thread: bool) -> Result<ProcMark, String> {
    let mut m = ProcMark::default();
    for pid in &fleet.pids {
        let s = procfs::stat(pid).ok_or(format!("cannot read /proc/{pid}/stat"))?;
        m.cpu_s += s.cpu_s;
        m.threads += s.threads;
        if per_thread {
            m.ctx_switches += procfs::ctx_switches(pid).unwrap_or(0);
        }
    }
    m.gen_cpu_s = procfs::stat("self").map_or(0.0, |s| s.cpu_s);
    m.net = procfs::net().ok_or("cannot read /proc/net counters")?;
    Ok(m)
}

/// One repetition's results.
struct LiveRep {
    setup_s: f64,
    spawn_s: f64,
    phase_s: f64,
    /// Host seconds of each chunk of the warm-up lifecycles.
    warm_chunks: Vec<f64>,
    batch: Batch,
    peak_rss_mb: f64,
    start: ProcMark,
    end: ProcMark,
}

fn repetition(bin: &str, seed: u64, traced: bool) -> Result<LiveRep, String> {
    let t0 = Instant::now();
    let mut fleet = Fleet::spawn(bin, seed)?;
    let spawn_s = t0.elapsed().as_secs_f64();
    let mut done = HashSet::new();
    let mut warm = drive(&mut fleet, WARMUP, &mut done)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let start = proc_mark(&fleet, traced)?;
    let t1 = Instant::now();
    let mut batch = drive(&mut fleet, LIFECYCLES, &mut done)?;
    let phase_s = t1.elapsed().as_secs_f64();
    let end = proc_mark(&fleet, traced)?;
    // Anything printed after the last lifecycle is a stray duplicate.
    let drain_end = Instant::now() + DRAIN;
    while let Ok(l) = fleet
        .lines
        .recv_timeout(drain_end.saturating_duration_since(Instant::now()))
    {
        if let Line::Text(node, line) = l {
            batch
                .violations
                .push(format!("node {node}: stray {line:?}"));
        }
    }
    batch.violations.append(&mut warm.violations);
    batch.attempted += warm.attempted;
    let peak_rss_mb = fleet
        .pids
        .iter()
        .filter_map(|p| procfs::status(p))
        .map(|s| s.vm_hwm_kb as f64 / 1024.0)
        .fold(0.0, f64::max);
    drop(fleet);
    Ok(LiveRep {
        setup_s,
        spawn_s,
        phase_s,
        warm_chunks: warm.chunks,
        batch,
        peak_rss_mb,
        start,
        end,
    })
}

/// Runs `live`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = args
        .node_bin
        .as_deref()
        .ok_or("live needs --node-bin <path to fuse-node>")?;
    let t0 = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while another_rep(t0, plain.len() + traced.len(), args.seconds) {
        let timed = args.trace && plain.len() > traced.len();
        let rep = repetition(bin, args.seed, timed)?;
        let mut c = latencies(&rep.batch.create, LIFECYCLES);
        let mut n = latencies(&rep.batch.notify, LIFECYCLES * (NODES - 1));
        println!(
            "  rep {:>2} {:<6} setup {:.4} s (spawn {:.4} s)  phase {:.4} s  {:.0} lifecycles/s  \
             create p50/p90/p99 {:.3}/{:.3}/{:.3} ms  notify {:.3}/{:.3}/{:.3} ms",
            plain.len() + traced.len() + 1,
            if timed { "traced" } else { "plain" },
            rep.setup_s,
            rep.spawn_s,
            rep.phase_s,
            LIFECYCLES as f64 / rep.phase_s,
            c.p50(),
            c.quantile(0.9),
            c.quantile(0.99),
            n.p50(),
            n.quantile(0.9),
            n.quantile(0.99),
        );
        if timed {
            traced.push(rep);
        } else {
            plain.push(rep);
        }
    }
    let reps: Vec<&LiveRep> = plain.iter().chain(&traced).collect();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    for r in &reps {
        out.attempted += r.batch.attempted;
        out.failed += r.batch.violations.len() as u64;
        for v in &r.batch.violations {
            println!("  VIOLATION: {v}");
        }
    }
    out.correct = out.failed == 0;
    if args.trace {
        per_layer(&mut out, &plain, &traced);
    } else {
        end_to_end(&mut out, &plain);
    }
    Ok(out)
}

/// Median over repetitions of one reading.
fn med(reps: &[LiveRep], f: impl Fn(&LiveRep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Least over repetitions of one host-time reading (see [`least`]).
fn min(reps: &[LiveRep], f: impl Fn(&LiveRep) -> f64) -> f64 {
    least(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Chunk-tagged samples as latencies with the tail fixed for `nominal`
/// samples.
fn latencies<'a>(of: impl IntoIterator<Item = &'a (usize, f64)>, nominal: usize) -> Latencies {
    let mut l = Latencies::for_count(nominal, TAIL_CAP);
    for &(_, ms) in of {
        l.add(ms);
    }
    l
}

/// For each chunk of the phase, the repetition that ran it fastest.
fn fastest_rep_per_chunk(reps: &[LiveRep]) -> Vec<usize> {
    (0..reps[0].batch.chunks.len())
        .map(|k| {
            (0..reps.len())
                .min_by(|&a, &b| reps[a].batch.chunks[k].total_cmp(&reps[b].batch.chunks[k]))
                .expect("at least one repetition")
        })
        .collect()
}

fn end_to_end(out: &mut Outcome, reps: &[LiveRep]) {
    let ops = LIFECYCLES as f64;
    let nodes = NODES as f64;
    out.put(
        "setup_s",
        min(reps, |r| r.spawn_s) + chunkwise_least(reps.iter().map(|r| &r.warm_chunks[..])),
        "s",
    );
    out.put(
        "phase_s",
        chunkwise_least(reps.iter().map(|r| &r.batch.chunks[..])),
        "s",
    );
    out.put("peak_rss_mb", med(reps, |r| r.peak_rss_mb), "MB");
    // Latencies pool, chunk by chunk, the samples of the repetition that
    // ran the chunk fastest: the same selection `phase_s` makes, so a slow
    // spell of the host drops out of the tail unless it hit every
    // repetition of a chunk.
    let pick = &fastest_rep_per_chunk(reps);
    let pooled = |of: fn(&Batch) -> &[(usize, f64)], nominal: usize| {
        let tagged = reps
            .iter()
            .enumerate()
            .flat_map(|(i, r)| of(&r.batch).iter().filter(move |(k, _)| pick[*k] == i));
        latencies(tagged, nominal)
    };
    let mut c = pooled(|b| &b.create, LIFECYCLES);
    let mut n = pooled(|b| &b.notify, LIFECYCLES * (NODES - 1));
    let unvalidated = "wall time; unvalidated (loopback, not the paper's cluster)";
    let tail_note = |l: &Latencies| {
        format!(
            "{} of {} samples, fastest rep per chunk",
            tail_label(l.tail()),
            l.len()
        )
    };
    out.note("create_p50_ms", c.p50(), "ms", unvalidated.into());
    out.note("create_tail_ms", c.tail_value(), "ms", tail_note(&c));
    out.note("notify_p50_ms", n.p50(), "ms", unvalidated.into());
    out.note("notify_tail_ms", n.tail_value(), "ms", tail_note(&n));
    // Traffic per node at an offered load of one lifecycle per second: TCP
    // data segments and loopback bytes (headers and ACKs included) per
    // node per lifecycle.
    let net = |r: &LiveRep, f: fn(&procfs::Net) -> u64| (f(&r.end.net) - f(&r.start.net)) as f64;
    out.note(
        "msgs_per_node_s",
        med(reps, |r| net(r, |n| n.data_segs) / nodes / ops),
        "1/s",
        "at 1 lifecycle/s: TCP data segments per node per lifecycle".into(),
    );
    out.note(
        "bytes_per_node_s",
        med(reps, |r| net(r, |n| n.lo_bytes) / nodes / ops),
        "B/s",
        "at 1 lifecycle/s: loopback bytes per node per lifecycle".into(),
    );
}

fn per_layer(out: &mut Outcome, plain: &[LiveRep], traced: &[LiveRep]) {
    let ops = LIFECYCLES as f64;
    let delta = |f: fn(&ProcMark) -> f64| med(traced, |r| f(&r.end) - f(&r.start));
    out.put("node.cpu_ms_per_op", delta(|m| m.cpu_s) * 1e3 / ops, "ms");
    out.put(
        "node.tcp_segs_per_op",
        delta(|m| m.net.segs_out as f64) / ops,
        "count",
    );
    out.put(
        "node.data_segs_per_op",
        delta(|m| m.net.data_segs as f64) / ops,
        "count",
    );
    out.put(
        "node.ctx_switches_per_op",
        delta(|m| m.ctx_switches as f64) / ops,
        "count",
    );
    out.put(
        "node.wire_bytes_per_op",
        delta(|m| m.net.lo_bytes as f64) / ops,
        "B",
    );
    out.put(
        "node.threads",
        med(traced, |r| r.end.threads as f64) / NODES as f64,
        "count",
    );
    out.put(
        "node.cpu_util",
        med(traced, |r| (r.end.cpu_s - r.start.cpu_s) / r.phase_s),
        "cpus",
    );
    out.put(
        "load.gen_cpu_frac",
        med(traced, |r| {
            (r.end.gen_cpu_s - r.start.gen_cpu_s) / r.phase_s
        }),
        "frac",
    );
    out.put("setup.populate_s", med(traced, |r| r.spawn_s), "s");
    out.put(
        "setup.warmup_s",
        med(traced, |r| r.setup_s - r.spawn_s),
        "s",
    );
    out.put(
        "trace.overhead_frac",
        med(traced, |r| r.phase_s) / med(plain, |r| r.phase_s) - 1.0,
        "frac",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_created_and_notified() {
        assert_eq!(
            parse_line("CREATED id=fuse:00000000000000ab result=ok t_ns=17"),
            Some(Report::Created {
                id: "fuse:00000000000000ab".into(),
                ok: true,
                t_ns: 17
            })
        );
        assert_eq!(
            parse_line("CREATED id=? result=unknown-member t_ns=5"),
            Some(Report::Created {
                id: "?".into(),
                ok: false,
                t_ns: 5
            })
        );
        assert_eq!(
            parse_line("NOTIFIED id=fuse:01 reason=signaled t_ns=99"),
            Some(Report::Notified {
                id: "fuse:01".into(),
                t_ns: 99
            })
        );
        assert_eq!(parse_line("READY"), None);
        assert_eq!(parse_line("NOTIFIED id=x"), None);
    }
}
