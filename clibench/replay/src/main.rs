//! Traced replay of the clibench workloads.
//!
//! Feeds one workload's exact input through the public library calls that
//! `slicing serve`, `slicing monitor` or `slicing detect` make, in the same
//! order, and times every call. Each layer keeps a count, a total and a
//! histogram in memory; one JSON line is written at the end. The replay
//! runs three passes — untimed, timed, untimed — so the timing overhead
//! can be read off the walls of the passes, and it checks that every pass
//! reaches the same work counters.
//!
//! ```text
//! clibench-replay serve   <stream> <tenants> <checkpoint> <metrics> <gc-lag> <gc-every> <ckpt-every> <ckpt-keep> <metrics-every>
//! clibench-replay monitor <trace> <predicate> <gc-lag> <gc-every>
//! clibench-replay detect  <trace> <predicate>
//! clibench-replay measure <result> <program> <args>...
//! ```
//!
//! `<tenants>` holds one `id=EXPR` per line, in `--tenant` order.
//!
//! `measure` is the benchmark's launcher for the program itself: it runs
//! the program with inherited standard streams and writes its wall time,
//! CPU time and peak RSS to `<result>`. The launcher is small on purpose.
//! Linux carries a process's peak RSS across `exec`, so a program started
//! straight from the benchmark's Python process would report that
//! process's size as its own peak.

use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use computation_slicing::computation::trace::{from_text, parse_line, TraceOp};
use computation_slicing::detect::{detect_on_slice, GcConfig, Limits, MonitorHub, OnlineMonitor};
use computation_slicing::predicates::expr::parse_predicate;
use computation_slicing::recovery::write_hub_checkpoint;
use computation_slicing::slicer::compile_predicate;
use computation_slicing::{Computation, Conjunctive, EventId, VarRef};
use slicing_observe::json::JsonObject;
use slicing_observe::{Histogram, MetricsSnapshotter};

/// The timed layers. `Parse` on `detect` is an extra pass over the lines
/// (the program parses inside `from_text`), so it is left out of the
/// library time there.
#[derive(Clone, Copy)]
enum Layer {
    Parse,
    PredicateParse,
    TenantAdd,
    TenantRemove,
    Observe,
    Message,
    Check,
    Checkpoint,
    Snapshot,
    Build,
    Slice,
    Search,
}

const LAYERS: [(&str, Layer); 12] = [
    ("parse", Layer::Parse),
    ("predicate_parse", Layer::PredicateParse),
    ("tenant_add", Layer::TenantAdd),
    ("tenant_remove", Layer::TenantRemove),
    ("observe", Layer::Observe),
    ("message", Layer::Message),
    ("check", Layer::Check),
    ("checkpoint", Layer::Checkpoint),
    ("snapshot", Layer::Snapshot),
    ("build", Layer::Build),
    ("slice", Layer::Slice),
    ("search", Layer::Search),
];

#[derive(Default)]
struct Span {
    count: u64,
    total_ns: u64,
    hist: Histogram,
}

/// Per-layer aggregates; with `on == false` every call runs untimed.
struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: LAYERS.iter().map(|_| Span::default()).collect(),
        }
    }

    fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let span = &mut self.spans[layer as usize];
        span.count += 1;
        span.total_ns += ns;
        span.hist.record(ns);
        out
    }

    fn total_ns(&self, layer: Layer) -> u64 {
        self.spans[layer as usize].total_ns
    }
}

/// Work counters a pass reaches; every pass must reach the same ones, and
/// they are compared with the program's own report.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counts {
    events: u64,
    messages: u64,
    alarms: u64,
    check_cost: u64,
    clause_evals: u64,
    cuts_explored: u64,
    max_stored_cuts: u64,
    retained_peak: u64,
    peak_candidates: u64,
    slots: u64,
    fanout_dropped: u64,
    slice_bytes: u64,
    checkpoint_bytes: u64,
}

/// The header-only computation predicates are parsed against.
fn header(text: &str) -> Result<Computation, String> {
    let lines: Vec<&str> = text
        .lines()
        .take_while(|l| !l.starts_with("event") && !l.starts_with("msg"))
        .filter(|l| l.starts_with("procs") || l.starts_with("var"))
        .collect();
    from_text(&lines.join("\n")).map_err(|e| e.to_string())
}

fn conjunctive(comp: &Computation, expr: &str) -> Result<Conjunctive, String> {
    parse_predicate(comp, expr)
        .map_err(|e| e.to_string())?
        .to_conjunctive()
        .ok_or_else(|| format!("not conjunctive: {expr}"))
}

/// Message edges waiting for an endpoint not yet observed, keyed by that
/// endpoint; delivered once both exist, as the program does.
#[derive(Default)]
struct Pending {
    need: Vec<u8>,
    edges: Vec<((usize, u32), (usize, u32))>,
    by_endpoint: HashMap<(usize, u32), Vec<usize>>,
}

impl Pending {
    /// Registers an edge; returns it if both endpoints already exist.
    fn add(
        &mut self,
        edge: ((usize, u32), (usize, u32)),
        positions: &[u32],
    ) -> Option<((usize, u32), (usize, u32))> {
        let idx = self.edges.len();
        let mut need = 0;
        for ep in [edge.0, edge.1] {
            if ep.1 > positions[ep.0] {
                self.by_endpoint.entry(ep).or_default().push(idx);
                need += 1;
            }
        }
        self.edges.push(edge);
        self.need.push(need);
        (need == 0).then_some(edge)
    }

    /// The event at `(process, pos)` was observed: edges now complete.
    fn touch(&mut self, process: usize, pos: u32) -> Vec<((usize, u32), (usize, u32))> {
        let Some(list) = self.by_endpoint.remove(&(process, pos)) else {
            return Vec::new();
        };
        let mut ready = Vec::new();
        for i in list {
            self.need[i] -= 1;
            if self.need[i] == 0 {
                ready.push(self.edges[i]);
            }
        }
        ready
    }
}

fn endpoints(
    event_at: impl Fn(usize, u32) -> Option<EventId>,
    (send, recv): ((usize, u32), (usize, u32)),
) -> Result<(EventId, EventId), String> {
    match (event_at(send.0, send.1), event_at(recv.0, recv.1)) {
        (Some(s), Some(r)) => Ok((s, r)),
        _ => Err("message endpoint compacted by GC".to_owned()),
    }
}

fn num(args: &[String], i: usize) -> Result<u64, String> {
    args.get(i)
        .ok_or_else(|| format!("missing argument {i}"))?
        .parse()
        .map_err(|e| format!("argument {i}: {e}"))
}

fn arg(args: &[String], i: usize) -> Result<&str, String> {
    args.get(i)
        .map(String::as_str)
        .ok_or_else(|| format!("missing argument {i}"))
}

/// `slicing serve` with `--tenant`s, GC, rotating checkpoints and metrics.
fn serve(tr: &mut Tracer, args: &[String]) -> Result<Counts, String> {
    let text = std::fs::read_to_string(arg(args, 0)?).map_err(|e| e.to_string())?;
    let tenants_text = std::fs::read_to_string(arg(args, 1)?).map_err(|e| e.to_string())?;
    let ckpt_path = std::path::Path::new(arg(args, 2)?);
    let metrics_path = arg(args, 3)?;
    let gc = GcConfig {
        lag: u32::try_from(num(args, 4)?).map_err(|e| e.to_string())?,
        every: num(args, 5)?,
    };
    let ckpt_every = num(args, 6)?;
    let ckpt_keep = usize::try_from(num(args, 7)?).map_err(|e| e.to_string())?;
    let metrics_every = num(args, 8)?;
    let standing: Vec<(&str, &str)> = tenants_text
        .lines()
        .filter_map(|l| l.split_once('='))
        .collect();

    let snapshotter = Arc::new(MetricsSnapshotter::new());
    let mut metrics_out =
        std::io::BufWriter::new(std::fs::File::create(metrics_path).map_err(|e| e.to_string())?);
    let _guard = slicing_observe::scoped(snapshotter.clone());

    let comp = header(&text)?;
    let mut hub: Option<MonitorHub> = None;
    let mut ensured = false;
    let mut pending = Pending::default();
    let mut positions: Vec<u32> = Vec::new();
    let mut last_ckpt = None;
    let mut counts = Counts::default();

    let ensure = |tr: &mut Tracer, h: &mut MonitorHub| -> Result<(), String> {
        for (id, expr) in &standing {
            let conj = tr.time(Layer::PredicateParse, || conjunctive(&comp, expr))?;
            tr.time(Layer::TenantAdd, || h.add_tenant(id, &conj, expr))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    };

    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let trimmed = line.trim();
        if let Some(rest) = trimmed.strip_prefix("tenant ") {
            let h = hub.as_mut().ok_or("tenant before procs")?;
            if !ensured {
                ensure(tr, h)?;
                ensured = true;
            }
            let (id, expr) = rest
                .trim()
                .split_once(char::is_whitespace)
                .ok_or("bad tenant directive")?;
            let expr = expr.trim();
            let conj = tr.time(Layer::PredicateParse, || conjunctive(&comp, expr))?;
            tr.time(Layer::TenantAdd, || h.add_tenant(id, &conj, expr))
                .map_err(|e| e.to_string())?;
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("untenant ") {
            let h = hub.as_mut().ok_or("untenant before procs")?;
            if !tr.time(Layer::TenantRemove, || h.remove_tenant(rest.trim())) {
                return Err(format!("line {lineno}: no tenant {rest}"));
            }
            continue;
        }
        let Some(op) = tr
            .time(Layer::Parse, || parse_line(line, lineno))
            .map_err(|e| e.to_string())?
        else {
            continue;
        };
        match op {
            TraceOp::Procs(n) => {
                hub = Some(MonitorHub::new(n).with_gc(gc));
                positions = vec![0; n];
            }
            TraceOp::Var {
                process,
                name,
                initial,
            } => {
                let h = hub.as_mut().ok_or("var before procs")?;
                h.declare_var(process, &name, initial)
                    .map_err(|e| e.to_string())?;
            }
            TraceOp::Event {
                process: p, writes, ..
            } => {
                let h = hub.as_mut().ok_or("event before procs")?;
                if !ensured {
                    ensure(tr, h)?;
                    ensured = true;
                }
                positions[p] += 1;
                let mut assignments: Vec<(VarRef, _)> = Vec::with_capacity(writes.len());
                for (name, value) in &writes {
                    let var = h.var(p, name).ok_or("unknown variable")?;
                    assignments.push((var, *value));
                }
                tr.time(Layer::Observe, || h.observe(p, &assignments))
                    .map_err(|e| e.to_string())?;
                for edge in pending.touch(p, positions[p]) {
                    tr.time(Layer::Message, || {
                        let (s, r) = endpoints(|q, k| h.event_at(q, k), edge)?;
                        h.message(s, r).map_err(|e| e.to_string())
                    })?;
                }
                let ev = h.stats().events;
                tr.time(Layer::Check, || h.check_all());
                if ev % metrics_every == 0 {
                    tr.time(Layer::Snapshot, || {
                        snapshotter.write_snapshot(&mut metrics_out, ev)
                    })
                    .map_err(|e| e.to_string())?;
                }
                if ev % ckpt_every == 0 {
                    tr.time(Layer::Checkpoint, || {
                        write_hub_checkpoint(ckpt_path, h, snapshotter.seq(), ckpt_keep)
                    })
                    .map_err(|e| e.to_string())?;
                    last_ckpt = Some(ev);
                }
            }
            TraceOp::Msg { send, recv } => {
                let h = hub.as_mut().ok_or("msg before procs")?;
                if let Some(edge) = pending.add((send, recv), &positions) {
                    tr.time(Layer::Message, || {
                        let (s, r) = endpoints(|q, k| h.event_at(q, k), edge)?;
                        h.message(s, r).map_err(|e| e.to_string())
                    })?;
                }
            }
            _ => {}
        }
    }
    let h = hub.as_mut().ok_or("stream has no procs line")?;
    if !ensured {
        ensure(tr, h)?;
    }
    let ev = h.stats().events;
    if last_ckpt != Some(ev) {
        tr.time(Layer::Checkpoint, || {
            write_hub_checkpoint(ckpt_path, h, snapshotter.seq(), ckpt_keep)
        })
        .map_err(|e| e.to_string())?;
    }
    if ev % metrics_every != 0 || ev == 0 {
        tr.time(Layer::Snapshot, || {
            snapshotter.write_snapshot(&mut metrics_out, ev)
        })
        .map_err(|e| e.to_string())?;
    }
    metrics_out.flush().map_err(|e| e.to_string())?;
    let stats = h.stats();
    counts.events = stats.events;
    counts.messages = stats.messages;
    counts.alarms = stats.alarms;
    counts.check_cost = stats.check_cost;
    counts.clause_evals = stats.clause_evals;
    counts.retained_peak = stats.retained_peak;
    counts.peak_candidates = stats.peak_candidates;
    counts.fanout_dropped = stats.fanout_dropped;
    counts.slots = h.slot_count() as u64;
    counts.checkpoint_bytes = std::fs::metadata(ckpt_path)
        .map_err(|e| e.to_string())?
        .len();
    Ok(counts)
}

/// `slicing monitor` with GC: a header pass over the trace, then the
/// replay pass through `OnlineMonitor`.
fn monitor(tr: &mut Tracer, args: &[String]) -> Result<Counts, String> {
    let text = std::fs::read_to_string(arg(args, 0)?).map_err(|e| e.to_string())?;
    let predicate = arg(args, 1)?;
    let gc = GcConfig {
        lag: u32::try_from(num(args, 2)?).map_err(|e| e.to_string())?,
        every: num(args, 3)?,
    };
    let mut counts = Counts::default();

    let mut procs = 0;
    let mut decls = Vec::new();
    let mut edges = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match tr
            .time(Layer::Parse, || parse_line(line, i + 1))
            .map_err(|e| e.to_string())?
        {
            Some(TraceOp::Procs(n)) => procs = n,
            Some(TraceOp::Var {
                process,
                name,
                initial,
            }) => decls.push((process, name, initial)),
            Some(TraceOp::Msg { send, recv }) => edges.push((send, recv)),
            _ => {}
        }
    }
    let comp = header(&text)?;
    let conj = tr.time(Layer::PredicateParse, || conjunctive(&comp, predicate))?;
    let mut m = OnlineMonitor::new(procs).with_gc(gc);
    let mut var_of: Vec<HashMap<String, VarRef>> = vec![HashMap::new(); procs];
    for (p, name, initial) in decls {
        let v = m
            .declare_var(p, &name, initial)
            .map_err(|e| e.to_string())?;
        var_of[p].insert(name, v);
    }
    for clause in conj.clauses() {
        m.watch_clause(clause.clone()).map_err(|e| e.to_string())?;
    }
    let mut positions = vec![0u32; procs];
    let mut pending = Pending::default();
    for edge in edges {
        if let Some(edge) = pending.add(edge, &positions) {
            tr.time(Layer::Message, || {
                let (s, r) = endpoints(|q, k| m.event_at(q, k), edge)?;
                m.message(s, r).map_err(|e| e.to_string())
            })?;
        }
    }
    for (i, line) in text.lines().enumerate() {
        let op = tr
            .time(Layer::Parse, || parse_line(line, i + 1))
            .map_err(|e| e.to_string())?;
        let Some(TraceOp::Event {
            process: p, writes, ..
        }) = op
        else {
            continue;
        };
        positions[p] += 1;
        let mut assignments = Vec::with_capacity(writes.len());
        for (name, value) in &writes {
            assignments.push((*var_of[p].get(name).ok_or("unknown variable")?, *value));
        }
        tr.time(Layer::Observe, || m.observe(p, &assignments))
            .map_err(|e| e.to_string())?;
        for edge in pending.touch(p, positions[p]) {
            tr.time(Layer::Message, || {
                let (s, r) = endpoints(|q, k| m.event_at(q, k), edge)?;
                m.message(s, r).map_err(|e| e.to_string())
            })?;
        }
        tr.time(Layer::Check, || m.check())
            .map_err(|e| e.to_string())?;
    }
    let stats = m.stats();
    counts.events = stats.events;
    counts.messages = stats.messages;
    counts.alarms = stats.alarms;
    counts.check_cost = stats.check_cost;
    counts.retained_peak = stats.retained_peak;
    counts.peak_candidates = stats.peak_candidates;
    Ok(counts)
}

/// `slicing detect --engine slice`: build, slice, search.
fn detect(tr: &mut Tracer, args: &[String]) -> Result<Counts, String> {
    let text = std::fs::read_to_string(arg(args, 0)?).map_err(|e| e.to_string())?;
    let predicate = arg(args, 1)?;
    let mut counts = Counts::default();
    for (i, line) in text.lines().enumerate() {
        tr.time(Layer::Parse, || parse_line(line, i + 1))
            .map_err(|e| e.to_string())?;
    }
    let comp = tr
        .time(Layer::Build, || from_text(&text))
        .map_err(|e| e.to_string())?;
    let pred = tr
        .time(Layer::PredicateParse, || parse_predicate(&comp, predicate))
        .map_err(|e| e.to_string())?;
    let (spec, slice) = tr.time(Layer::Slice, || {
        let spec = compile_predicate(&comp, &pred);
        let slice = spec.slice(&comp);
        (spec, slice)
    });
    let found = tr.time(Layer::Search, || {
        detect_on_slice(&comp, &slice, &spec, Duration::ZERO, &Limits::none())
    });
    if !found.detected() {
        return Err("predicate not detected".to_owned());
    }
    counts.events = comp.num_events() as u64;
    counts.cuts_explored = found.search.cuts_explored;
    counts.max_stored_cuts = found.search.max_stored_cuts;
    counts.slice_bytes = found.slice_bytes;
    Ok(counts)
}

#[repr(C)]
struct Timeval {
    sec: std::os::raw::c_long,
    usec: std::os::raw::c_long,
}

/// `struct rusage` of Linux: two timevals, then 14 longs, `ru_maxrss`
/// (KiB) first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: std::os::raw::c_long,
    rest: [std::os::raw::c_long; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `program` to its end; writes `wall_ns cpu_ns maxrss_kib` to
/// `result` and returns the program's exit code.
fn measure(args: &[String]) -> Result<u8, String> {
    let (result, cmd) = args.split_first().ok_or("measure needs a result path")?;
    let (program, program_args) = cmd.split_first().ok_or("measure needs a program")?;
    let t0 = Instant::now();
    let child = std::process::Command::new(program)
        .args(program_args)
        .spawn()
        .map_err(|e| format!("spawning {program}: {e}"))?;
    let pid = i32::try_from(child.id()).map_err(|e| e.to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (`child` is never waited
        // on through std), and both pointers refer to live, properly sized
        // and aligned locals for the duration of the call.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {err}"));
        }
    }
    let wall_ns = t0.elapsed().as_nanos();
    let micros = |t: &Timeval| t.sec as i128 * 1_000_000 + t.usec as i128;
    let cpu_ns = (micros(&usage.utime) + micros(&usage.stime)) * 1000;
    std::fs::write(result, format!("{wall_ns} {cpu_ns} {}\n", usage.maxrss))
        .map_err(|e| format!("writing {result}: {e}"))?;
    // Exited normally: the exit code; killed by a signal: failure.
    Ok(if status & 0x7f == 0 {
        ((status >> 8) & 0xff) as u8
    } else {
        1
    })
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (kind, rest) = args
        .split_first()
        .ok_or("usage: clibench-replay serve|monitor|detect|measure ...")?;
    let pass: fn(&mut Tracer, &[String]) -> Result<Counts, String> = match kind.as_str() {
        "serve" => serve,
        "monitor" => monitor,
        "detect" => detect,
        other => return Err(format!("unknown workload {other}")),
    };
    let mut walls = Vec::new();
    let mut counts = Vec::new();
    let mut timed = Tracer::new(true);
    for on in [false, true, false] {
        let mut untimed = Tracer::new(false);
        let tr = if on { &mut timed } else { &mut untimed };
        let t0 = Instant::now();
        counts.push(pass(tr, rest)?);
        walls.push(t0.elapsed().as_nanos() as u64);
    }
    if counts.iter().any(|c| *c != counts[0]) {
        return Err(format!("passes disagree: {counts:?}"));
    }
    let c = &counts[0];
    // Library time: every timed call the program itself makes.
    let library_ns: u64 = LAYERS
        .iter()
        .filter(|(_, l)| !(kind == "detect" && matches!(l, Layer::Parse)))
        .map(|&(_, l)| timed.total_ns(l))
        .sum();
    let mut layers = JsonObject::new();
    for (i, (name, _)) in LAYERS.iter().enumerate() {
        let s = &timed.spans[i];
        if s.count > 0 {
            layers = layers.raw(
                name,
                &JsonObject::new()
                    .u64("count", s.count)
                    .u64("total_ns", s.total_ns)
                    .u64("p50_ns", s.hist.p50())
                    .u64("p99_ns", s.hist.quantile(0.99))
                    .finish(),
            );
        }
    }
    Ok(JsonObject::new()
        .u64("events", c.events)
        .u64("messages", c.messages)
        .u64("alarms", c.alarms)
        .u64("check_cost", c.check_cost)
        .u64("clause_evals", c.clause_evals)
        .u64("cuts_explored", c.cuts_explored)
        .u64("max_stored_cuts", c.max_stored_cuts)
        .u64("retained_peak", c.retained_peak)
        .u64("peak_candidates", c.peak_candidates)
        .u64("slots", c.slots)
        .u64("fanout_dropped", c.fanout_dropped)
        .u64("slice_bytes", c.slice_bytes)
        .u64("checkpoint_bytes", c.checkpoint_bytes)
        .u64("untimed_ns", (walls[0] + walls[2]) / 2)
        .u64("timed_ns", walls[1])
        .u64("library_ns", library_ns)
        .raw("layers", &layers.finish())
        .finish())
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("measure") {
        return match measure(&args[1..]) {
            Ok(code) => std::process::ExitCode::from(code),
            Err(e) => {
                eprintln!("clibench-replay: {e}");
                std::process::ExitCode::FAILURE
            }
        };
    }
    match run() {
        Ok(json) => {
            println!("{json}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("clibench-replay: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
