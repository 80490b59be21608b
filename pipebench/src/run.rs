//! One benchmark run: generate inputs, set up the monitor several times,
//! drain ChangeLog backlogs, run the paced phase beside replays and
//! historic queries, check every output against the oracle, report.

use crate::oracle::{Digest, Op, Rec};
use crate::pipeline::{Consumer, Pipeline, Sender, AGG_THREAD};
use crate::probe::{peak_rss_mb, process_cpu_ns, steal_ns, thread_cpu_ns, Steal, TaskCpu};
use crate::stats::{iq_mean, median, percentile};
use crate::trace::Tracer;
use crate::workload::{Inputs, Spec, HIST_BASE, PACED_BASE};
use sdci_core::{Collector, EventBackend, MonitorConfig, StoreQuery};
use sdci_net::{RemoteStore, ScatterStore};
use sdci_types::FileEvent;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: HashMap<&'static str, f64>,
    /// Oracle findings, one line each (empty when correct).
    pub findings: Vec<String>,
    /// Seconds spent generating inputs (not part of any metric).
    pub gen_s: f64,
}

/// Names of the benchmark's own threads.
const CONSUMER_THREAD: &str = "pb-consumer";
const READER_THREAD: &str = "pb-reader";
/// Paced-phase read schedule: one replay and one historic query this
/// often.
const REPLAY_EVERY: Duration = Duration::from_millis(125);
const QUERY_EVERY: Duration = Duration::from_millis(20);
/// No single wait in a run may exceed this.
const PHASE_LIMIT: Duration = Duration::from_secs(60);

fn rec_of(ev: FileEvent) -> Rec {
    Rec {
        time: ev.time.as_nanos(),
        kind: ev.changelog_kind.code(),
        path: ev.path.into_os_string().into_string().unwrap_or_default(),
    }
}

/// What one consumer delivered, as the oracle checks it: an ordered
/// digest of the events and whether ChangeLog indexes only grew.
#[derive(Default)]
struct Stream {
    digest: Digest,
    last_index: u64,
    out_of_order: u64,
}

/// Adds one delivered or returned event to an ordered digest.
fn push_event(d: &mut Digest, ev: &FileEvent) {
    d.push(ev.time.as_nanos(), ev.changelog_kind.code(), &ev.path.to_string_lossy());
}

impl Stream {
    fn push(&mut self, ev: &FileEvent) {
        push_event(&mut self.digest, ev);
        if ev.index <= self.last_index {
            self.out_of_order += 1;
        }
        self.last_index = ev.index;
    }
}

fn counter(name: &str) -> u64 {
    sdci_obs::registry().counter(name).get()
}

fn histogram(name: &str) -> (u64, u64) {
    let h = sdci_obs::registry().histogram(name);
    (h.sum_ns(), h.count())
}

/// Counters read at the edges of a traced drain round.
#[derive(Default, Clone, Copy)]
struct Edge {
    hits: u64,
    fid2path: u64,
    invalidations: u64,
    resolutions: u64,
    bytes_out: u64,
    items: u64,
    batches: u64,
}

impl Edge {
    fn read(collector: &Collector<Sender>, p: &Pipeline, fs_resolutions: u64) -> Edge {
        let stats = collector.stats();
        let pulls = p.shards.iter().map(|s| s.pull.stats());
        let (items, batches) = pulls.fold((0, 0), |(i, b), s| (i + s.items, b + s.batches));
        Edge {
            hits: stats.cache_hits,
            fid2path: stats.fid2path_calls,
            invalidations: collector.cache_stats().invalidations,
            resolutions: fs_resolutions,
            bytes_out: counter("sdci_net_bytes_out_total"),
            items,
            batches,
        }
    }

    /// Adds the growth from `from` to `to` to these sums.
    fn add_delta(&mut self, from: Edge, to: Edge) {
        self.hits += to.hits - from.hits;
        self.fid2path += to.fid2path - from.fid2path;
        self.invalidations += to.invalidations - from.invalidations;
        self.resolutions += to.resolutions - from.resolutions;
        self.bytes_out += to.bytes_out - from.bytes_out;
        self.items += to.items - from.items;
        self.batches += to.batches - from.batches;
    }
}

/// Per-layer sums over the traced drain rounds.
#[derive(Default)]
struct LayerSums {
    records: u64,
    run_once_wall_ns: u64,
    run_once_cpu_ns: u64,
    consumer_cpu_ns: u64,
    consumer_wall_ns: u64,
    threads: HashMap<&'static str, u64>,
    delta: Edge,
    cpu_traced_ns: u64,
    records_untraced: u64,
    cpu_untraced_ns: u64,
}

const THREAD_LAYERS: [(&str, &[&str]); 6] = [
    ("push", &["sdci-net-push"]),
    ("pull", &["sdci-net-pull"]),
    ("aggregator", &[AGG_THREAD]),
    ("fanout", &["sdci-net-fanout", "sdci-net-conn"]),
    ("subscriber", &["sdci-net-sub"]),
    ("store_rpc", &["sdci-net-store"]),
];

fn layer_cpu(cpu: &TaskCpu, layer: &str) -> u64 {
    THREAD_LAYERS
        .iter()
        .find(|(l, _)| *l == layer)
        .map_or(0, |(_, prefixes)| prefixes.iter().map(|p| cpu.ns_for(p)).sum())
}

/// Receives `want` events across `consumers`, appending them per shard.
/// Returns the instant of the last delivery, or `None` on timeout.
fn receive(consumers: &mut [Consumer], out: &mut [Stream], want: u64) -> Option<Instant> {
    let deadline = Instant::now() + PHASE_LIMIT;
    let mut got = 0;
    let mut last = Instant::now();
    let mut turn = 0;
    while got < want {
        if Instant::now() >= deadline {
            return None;
        }
        if consumers.len() == 1 {
            if let Some(ev) = consumers[0].next_timeout(Duration::from_millis(50)) {
                out[0].push(&ev);
                got += 1;
                last = Instant::now();
            }
            continue;
        }
        // Several shards: drain whatever is ready, then wait briefly on
        // one consumer at a time.
        let mut progressed = false;
        for (c, sink) in consumers.iter_mut().zip(out.iter_mut()) {
            while let Some(ev) = c.try_next() {
                sink.push(&ev);
                got += 1;
                progressed = true;
            }
        }
        if progressed {
            last = Instant::now();
        } else {
            turn = (turn + 1) % consumers.len();
            if let Some(ev) = consumers[turn].next_timeout(Duration::from_micros(200)) {
                out[turn].push(&ev);
                got += 1;
                last = Instant::now();
            }
        }
    }
    Some(last)
}

/// Results of the reader thread in the paced phase.
#[derive(Default)]
struct Reads {
    replay_eps: Vec<f64>,
    replay_digests: Vec<(usize, Digest)>,
    query_ms: Vec<f64>,
    query_digests: Vec<(usize, Digest)>,
    direct_ms: Vec<f64>,
    direct_digests: Vec<(usize, Digest)>,
    scatter_ms: Vec<f64>,
    scatter_digests: Vec<(usize, Digest)>,
    attempted: u64,
    failed: u64,
    store_rpc_cpu_ns: u64,
    queries_served: u64,
    scatter_degraded: u64,
    replay_steal: Steal,
}

fn digest_events(evs: &[sdci_core::SequencedEvent]) -> Digest {
    let mut d = Digest::default();
    for e in evs {
        push_event(&mut d, &e.event);
    }
    d
}

fn reader(
    p: &Pipeline,
    script: &[StoreQuery],
    history: &[u64],
    start: Instant,
    done: &AtomicBool,
    tracer: &mut Tracer,
) -> Reads {
    let mut r = Reads::default();
    let front = RemoteStore::connect(p.query_addr(), p.cfg.clone());
    let scatter = ScatterStore::new(
        p.shards.iter().enumerate().map(|(i, s)| (i as u32, s.store_srv.local_addr())).collect(),
        p.cfg.clone(),
    );
    let mut cpu = tracer.enabled().then(TaskCpu::start);
    let served = |p: &Pipeline| -> u64 {
        p.shards.iter().map(|s| s.store_srv.queries()).sum::<u64>()
            + p.front.as_ref().map_or(0, |(srv, _)| srv.queries())
    };
    let served0 = served(p);
    let links = p.replay_links();
    let mut next_query = 0usize;
    let mut shard = 0usize;
    // Reads are an open loop too: a replay every REPLAY_EVERY and a
    // query every QUERY_EVERY, so their load does not depend on how fast
    // the last one finished.
    let (mut replay_due, mut query_due) = (start, start);
    while !done.load(Ordering::Relaxed) {
        let now = Instant::now();
        if now < replay_due && now < query_due {
            std::thread::sleep(replay_due.min(query_due) - now);
            continue;
        }
        if now >= replay_due {
            replay_due += REPLAY_EVERY;
            // One replay from cursor 0 of one shard's whole history.
            r.attempted += 1;
            let want = history[shard];
            let steal0 = steal_ns();
            let t0 = Instant::now();
            let (feed, store) = links[shard].clone();
            let mut c = sdci_core::EventConsumer::new(feed, store, 0);
            let mut d = Digest::default();
            let deadline = t0 + PHASE_LIMIT;
            while d.count < want && Instant::now() < deadline {
                if let Some(ev) = c.next_timeout(Duration::from_millis(50)) {
                    push_event(&mut d, &ev);
                }
            }
            let t1 = Instant::now();
            tracer.span("replay", t0, t1);
            if let Some(cpu) = cpu.as_mut() {
                cpu.sample();
            }
            if d.count == want {
                r.replay_steal.add(steal_ns() - steal0, (t1 - t0).as_nanos() as u64);
                r.replay_eps.push(want as f64 / (t1 - t0).as_secs_f64());
                r.replay_digests.push((shard, d));
            } else {
                r.failed += 1;
            }
            shard = (shard + 1) % p.shards.len();
            continue;
        }
        query_due += QUERY_EVERY;
        let i = next_query % script.len();
        next_query += 1;
        r.attempted += 1;
        let t0 = Instant::now();
        let res = front.try_query(&script[i]);
        let t1 = Instant::now();
        tracer.span("query.front", t0, t1);
        match res {
            Ok(evs) => {
                r.query_ms.push((t1 - t0).as_secs_f64() * 1e3);
                r.query_digests.push((i, digest_events(&evs)));
            }
            Err(_) => r.failed += 1,
        }
        if tracer.enabled() {
            let t0 = Instant::now();
            let evs = p.shards[0].store.query(&script[i]);
            let t1 = Instant::now();
            tracer.span("query.store", t0, t1);
            r.direct_ms.push((t1 - t0).as_secs_f64() * 1e3);
            r.direct_digests.push((i, digest_events(&evs)));
            let t0 = Instant::now();
            let evs = scatter.query(&script[i]);
            let t1 = Instant::now();
            tracer.span("query.scatter", t0, t1);
            r.scatter_ms.push((t1 - t0).as_secs_f64() * 1e3);
            r.scatter_digests.push((i, digest_events(&evs)));
        }
    }
    if let Some(cpu) = cpu.as_mut() {
        cpu.sample();
        r.store_rpc_cpu_ns = layer_cpu(cpu, "store_rpc");
    }
    r.queries_served = served(p) - served0;
    r.scatter_degraded = scatter.degraded();
    r
}

/// Paced-phase latency samples, in milliseconds.
#[derive(Default)]
struct Latency {
    e2e: Vec<f64>,
    input_wait: Vec<f64>,
    pipeline: Vec<f64>,
    late_max_ms: f64,
}

/// Mutable state of one run, shared by its phases.
struct State<'a> {
    inputs: &'a Inputs,
    p: Pipeline,
    collector: Collector<Sender>,
    tracer: Tracer,
    trace: bool,
    log: Vec<Rec>,
    delivered: Vec<Stream>,
    attempted: u64,
    failed: u64,
    drain_eps: Vec<f64>,
    cpu_per_event: Vec<f64>,
    sums: LayerSums,
    /// Host steal over the measured drain rounds and the paced phase.
    drain_steal: Steal,
    paced_steal: Steal,
}

impl State<'_> {
    /// Applies `ops` to the filesystem (untimed), then times the collector
    /// draining the backlog until the consumers deliver every record.
    /// Measured rounds feed `drain_eps` and `cpu_us_per_event`.
    fn drain_round(
        &mut self,
        round: usize,
        ops: &[(u64, Op)],
        measured: bool,
    ) -> Result<(), String> {
        // Traced runs trace rounds in the pattern T U U T so the cost of
        // tracing shows against the untraced rounds between them.
        let traced = self.trace && measured && matches!(round % 4, 0 | 3);
        let fs = &self.inputs.fs;
        let before = self.log.len();
        {
            let mut guard = fs.lock();
            for (time, op) in ops {
                self.attempted += 1;
                match op.apply(&mut guard, *time) {
                    Ok(()) => self.log.extend(op.records(*time)),
                    Err(_) => self.failed += 1,
                }
            }
        }
        let want = (self.log.len() - before) as u64;
        let mut cpu = traced.then(TaskCpu::start);
        let edge0 = Edge::read(&self.collector, &self.p, fs.lock().resolution_count());
        let cpu0 = process_cpu_ns();
        let steal0 = steal_ns();
        let t0 = Instant::now();
        let done = self.collector.stats().processed + want;
        let (consumers, sinks) = (&mut self.p.consumers, &mut self.delivered);
        let (collector, tracer) = (&mut self.collector, &mut self.tracer);
        let mut run_once_ns = 0;
        let mut run_once_cpu_ns = 0;
        let (last, consumer_cpu, consumer_wall) = std::thread::scope(|scope| {
            let b = std::thread::Builder::new()
                .name(CONSUMER_THREAD.into())
                .spawn_scoped(scope, move || {
                    let c0 = thread_cpu_ns();
                    let w0 = Instant::now();
                    let last = receive(consumers, sinks, want);
                    (last, thread_cpu_ns() - c0, (Instant::now() - w0).as_nanos() as u64)
                })
                .map_err(|e| format!("spawn consumer: {e}"))?;
            let deadline = Instant::now() + PHASE_LIMIT;
            while collector.stats().processed < done && Instant::now() < deadline {
                let c0 = traced.then(thread_cpu_ns);
                let s0 = Instant::now();
                let n = collector.run_once();
                if let Some(c0) = c0 {
                    let s1 = Instant::now();
                    tracer.span("collector.run_once", s0, s1);
                    run_once_ns += (s1 - s0).as_nanos() as u64;
                    run_once_cpu_ns += thread_cpu_ns() - c0;
                }
                if n == 0 {
                    std::thread::yield_now();
                }
            }
            b.join().map_err(|_| "consumer thread panicked".to_string())
        })?;
        let Some(last) = last else {
            return Err(format!("drain round {round}: not every event was delivered"));
        };
        let cpu_ns = process_cpu_ns() - cpu0;
        let stolen = steal_ns() - steal0;
        self.tracer.span("drain.round", t0, last);
        if !measured {
            return Ok(());
        }
        self.drain_steal.add(stolen, (last - t0).as_nanos() as u64);
        self.drain_eps.push(want as f64 / (last - t0).as_secs_f64());
        let sums = &mut self.sums;
        match cpu.as_mut() {
            Some(cpu) => {
                cpu.sample();
                let edge1 = Edge::read(&self.collector, &self.p, fs.lock().resolution_count());
                sums.records += want;
                sums.run_once_wall_ns += run_once_ns;
                sums.run_once_cpu_ns += run_once_cpu_ns;
                sums.consumer_cpu_ns += consumer_cpu;
                sums.consumer_wall_ns += consumer_wall;
                for (layer, _) in THREAD_LAYERS {
                    *sums.threads.entry(layer).or_default() += layer_cpu(cpu, layer);
                }
                sums.delta.add_delta(edge0, edge1);
                sums.cpu_traced_ns += cpu_ns;
            }
            None => {
                self.cpu_per_event.push(cpu_ns as f64 / 1e3 / want as f64);
                sums.records_untraced += want;
                sums.cpu_untraced_ns += cpu_ns;
            }
        }
        Ok(())
    }

    /// The paced phase: the open-loop generator, the collector and the
    /// live consumers on this thread; replays and the query script on the
    /// reader thread beside it.
    fn paced(&mut self, rate: f64, history: &[u64]) -> Result<(Reads, Latency), String> {
        let inputs = self.inputs;
        let paced_records: u64 = inputs.paced.iter().map(|op| op.records(0).len() as u64).sum();
        let done = AtomicBool::new(false);
        let mut lat = Latency::default();
        let mut reader_tracer = Tracer::new(self.trace);
        let mut consumers = std::mem::take(&mut self.p.consumers);
        let (p, script) = (&self.p, &inputs.script);
        let (collector, tracer, log, delivered) =
            (&mut self.collector, &mut self.tracer, &mut self.log, &mut self.delivered);
        let (mut attempted, mut failed) = (0u64, 0u64);
        let start = Instant::now() + Duration::from_millis(2);
        let steal0 = steal_ns();
        let reads = std::thread::scope(|scope| -> Result<Reads, String> {
            let done = &done;
            let rt = &mut reader_tracer;
            let b = std::thread::Builder::new()
                .name(READER_THREAD.into())
                .spawn_scoped(scope, move || reader(p, script, history, start, done, rt))
                .map_err(|e| format!("spawn reader: {e}"))?;
            let n = inputs.paced.len();
            let unix_at_start =
                sdci_obs::unix_now_ns() + (start - Instant::now()).as_nanos() as u64;
            let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
            let due_unix = |i: usize| unix_at_start + (i as f64 / rate * 1e9) as u64;
            let mut next = 0usize;
            let mut got = 0u64;
            let mut turn = 0usize;
            let on_delivery = |ev: FileEvent,
                               s: usize,
                               got: &mut u64,
                               lat: &mut Latency,
                               delivered: &mut Vec<Stream>| {
                let at = Instant::now();
                let at_unix = sdci_obs::unix_now_ns();
                let time = ev.time.as_nanos();
                if (PACED_BASE..HIST_BASE).contains(&time) {
                    let i = (time - PACED_BASE) as usize;
                    *got += 1;
                    lat.e2e.push((at - due(i)).as_secs_f64() * 1e3);
                    if let Some(x) = ev.extracted_unix_ns {
                        lat.input_wait.push(x.saturating_sub(due_unix(i)) as f64 / 1e6);
                        lat.pipeline.push(at_unix.saturating_sub(x) as f64 / 1e6);
                    }
                }
                delivered[s].push(&ev);
            };
            let deadline = start + Duration::from_secs_f64(n as f64 / rate) + PHASE_LIMIT;
            while next < n || got < paced_records {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                if next < n && due(next) <= now {
                    let mut guard = inputs.fs.lock();
                    while next < n && due(next) <= Instant::now() {
                        let late = (Instant::now() - due(next)).as_secs_f64() * 1e3;
                        lat.late_max_ms = lat.late_max_ms.max(late);
                        let time = PACED_BASE + next as u64;
                        let op = &inputs.paced[next];
                        attempted += 1;
                        match op.apply(&mut guard, time) {
                            Ok(()) => log.extend(op.records(time)),
                            Err(_) => failed += 1,
                        }
                        next += 1;
                    }
                }
                let s0 = Instant::now();
                if collector.run_once() > 0 {
                    while collector.run_once() > 0 {}
                    tracer.span("collector.run_once", s0, Instant::now());
                }
                for (s, c) in consumers.iter_mut().enumerate() {
                    while let Some(ev) = c.try_next() {
                        on_delivery(ev, s, &mut got, &mut lat, delivered);
                    }
                }
                // Wait for the next due operation by blocking on the feed,
                // so a delivery wakes this thread as soon as it lands.
                let wait = if next < n {
                    due(next).saturating_duration_since(Instant::now())
                } else {
                    Duration::from_millis(1)
                };
                if !wait.is_zero() {
                    turn = (turn + 1) % consumers.len();
                    let cap = if consumers.len() > 1 { Duration::from_micros(200) } else { wait };
                    if let Some(ev) = consumers[turn].next_timeout(wait.min(cap)) {
                        on_delivery(ev, turn, &mut got, &mut lat, delivered);
                    }
                }
            }
            done.store(true, Ordering::Relaxed);
            let reads = b.join().map_err(|_| "reader thread panicked".to_string())?;
            if got < paced_records {
                return Err(format!("paced phase: {got} of {paced_records} events delivered"));
            }
            Ok(reads)
        })?;
        self.p.consumers = consumers;
        self.paced_steal.add(steal_ns() - steal0, (Instant::now() - start).as_nanos() as u64);
        self.tracer.absorb(reader_tracer);
        self.attempted += attempted + reads.attempted;
        self.failed += failed + reads.failed;
        Ok((reads, lat))
    }
}

pub fn run(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(trace);
    let t_gen = Instant::now();
    let inputs = Inputs::generate(spec, seed, seconds)?;
    let gen_s = t_gen.elapsed().as_secs_f64();

    // Set-up, several times; the last pipeline is kept.
    let per_shard: Vec<usize> = inputs.warmup_recs.iter().map(Vec::len).collect();
    let mut setup_s = Vec::new();
    let mut setup_steal = Steal::default();
    let mut pipeline = None;
    for k in 0..spec.setups {
        let prefill = inputs.prefill.clone();
        let warmup = inputs.warmup.clone();
        let steal0 = steal_ns();
        let t0 = Instant::now();
        let p = Pipeline::start(prefill, warmup, &per_shard)?;
        let t1 = Instant::now();
        setup_steal.add(steal_ns() - steal0, (t1 - t0).as_nanos() as u64);
        tracer.span("setup", t0, t1);
        setup_s.push((t1 - t0).as_secs_f64());
        if k + 1 < spec.setups {
            p.shutdown();
        } else {
            pipeline = Some(p);
        }
    }
    let p = pipeline.expect("at least one set-up");
    let resends0 = counter("sdci_net_push_resends_total");
    let shed0 = counter("sdci_net_fanout_shed_total");
    let sub_dropped = || {
        sdci_obs::registry()
            .counter_with("sdci_net_sub_dropped_total", &[("topic", "feed/all")])
            .get()
    };
    let dropped0 = sub_dropped();

    let collector = Collector::resume(
        std::sync::Arc::clone(&inputs.fs),
        inputs.checkpoint,
        p.sender.clone(),
        MonitorConfig::default(),
    );
    let mut st = State {
        inputs: &inputs,
        p,
        collector,
        tracer,
        trace,
        log: Vec::new(),
        delivered: (0..spec.shards).map(|_| Stream::default()).collect(),
        attempted: 0,
        failed: 0,
        drain_eps: Vec::new(),
        cpu_per_event: Vec::new(),
        sums: LayerSums::default(),
        drain_steal: Steal::default(),
        paced_steal: Steal::default(),
    };

    // The history replays and queries read: drained, not measured.
    st.drain_round(0, &inputs.history, false)?;
    let history: Vec<u64> = st.p.shards.iter().map(|s| s.store.last_seq()).collect();
    let ack0 = histogram("sdci_net_ack_rtt_seconds");
    let lag0 = histogram("sdci_e2e_store_insert_latency_seconds");
    let (reads, mut lat) = st.paced(spec.paced_rate, &history)?;
    let ack1 = histogram("sdci_net_ack_rtt_seconds");
    let lag1 = histogram("sdci_e2e_store_insert_latency_seconds");
    for (round, ops) in inputs.drain.iter().enumerate() {
        st.drain_round(round, ops, true)?;
    }
    if !st.p.sender.drain(Duration::from_secs(10)) {
        return Err("push pipes did not drain".into());
    }

    // The run ends here; what follows only checks and reports.
    let peak_rss = peak_rss_mb();
    let mut findings = Vec::new();
    let scanned = check_stores(&st.p, &inputs, &st.log, &st.delivered, &mut findings);
    check_reads(&reads, &scanned, &history, &inputs.script, &mut findings);

    let State {
        p,
        mut tracer,
        sums,
        drain_eps,
        cpu_per_event,
        attempted,
        failed,
        drain_steal,
        paced_steal,
        ..
    } = st;
    let mut m: HashMap<&'static str, f64> = HashMap::new();
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let iqm = |v: &[f64]| iq_mean(v).unwrap_or(f64::NAN);
    // Time the host stole from this machine's CPUs is not time the
    // monitor had: set-up time and rates count only the unstolen share of
    // the time their set-ups, rounds or replays took. Process CPU time
    // already leaves stolen time out, so CPU per event is not scaled.
    let kept = |steal: Steal| 1.0 - steal.share();
    m.insert("setup_s", med(&setup_s) * kept(setup_steal));
    m.insert("peak_rss_mb", peak_rss);
    m.insert("drain_eps", iqm(&drain_eps) / kept(drain_steal));
    m.insert("cpu_us_per_event", iqm(&cpu_per_event));
    m.insert("lat_p50_ms", percentile(&mut lat.e2e, 0.5).unwrap_or(f64::NAN));
    m.insert("lat.e2e_p99_ms", percentile(&mut lat.e2e, 0.99).unwrap_or(f64::NAN));
    m.insert("replay_eps", iqm(&reads.replay_eps) / kept(reads.replay_steal));
    let mut query_ms = reads.query_ms;
    m.insert("query_p50_ms", percentile(&mut query_ms, 0.5).unwrap_or(f64::NAN));
    m.insert("host.steal_pct", drain_steal.plus(paced_steal).share() * 100.0);

    // Per-layer figures.
    let per_ev = |ns: u64| ns as f64 / 1e3 / sums.records.max(1) as f64;
    let per_kev = |n: u64| n as f64 * 1e3 / sums.records.max(1) as f64;
    m.insert("collector.us_per_record", per_ev(sums.run_once_wall_ns));
    m.insert("collector.cpu_us_per_event", per_ev(sums.run_once_cpu_ns));
    m.insert("lustre.fid2path_per_kevent", per_kev(sums.delta.resolutions));
    let lookups = sums.delta.hits + sums.delta.fid2path;
    m.insert("collector.cache_hit_ratio", sums.delta.hits as f64 / lookups.max(1) as f64);
    m.insert("collector.cache_invalidations_per_kevent", per_kev(sums.delta.invalidations));
    let thread = |layer: &str| per_ev(sums.threads.get(layer).copied().unwrap_or(0));
    m.insert("push.cpu_us_per_event", thread("push"));
    m.insert("pull.cpu_us_per_event", thread("pull"));
    m.insert("aggregator.cpu_us_per_event", thread("aggregator"));
    m.insert("fanout.cpu_us_per_event", thread("fanout"));
    m.insert("subscriber.cpu_us_per_event", thread("subscriber"));
    m.insert("wire.bytes_per_event", sums.delta.bytes_out as f64 / sums.records.max(1) as f64);
    m.insert("wire.events_per_frame", sums.delta.items as f64 / sums.delta.batches.max(1) as f64);
    let mean_us =
        |a: (u64, u64), b: (u64, u64)| (b.0 - a.0) as f64 / 1e3 / (b.1 - a.1).max(1) as f64;
    m.insert("push.ack_rtt_us_mean", mean_us(ack0, ack1));
    m.insert("push.resends", (counter("sdci_net_push_resends_total") - resends0) as f64);
    m.insert("aggregator.insert_lag_us_mean", mean_us(lag0, lag1));
    m.insert("store.query_ms_p50", med(&reads.direct_ms));
    m.insert(
        "store_rpc.cpu_us_per_query",
        reads.store_rpc_cpu_ns as f64 / 1e3 / reads.queries_served.max(1) as f64,
    );
    let resident: u64 = p.shards.iter().map(|s| s.store.stats().resident_bytes).sum();
    m.insert("store.resident_mb", resident as f64 / (1024.0 * 1024.0));
    m.insert("fanout.shed", (counter("sdci_net_fanout_shed_total") - shed0) as f64);
    m.insert("subscriber.dropped", (sub_dropped() - dropped0) as f64);
    m.insert("consumer.cpu_us_per_event", per_ev(sums.consumer_cpu_ns));
    m.insert(
        "consumer.wait_us_per_event",
        per_ev(sums.consumer_wall_ns.saturating_sub(sums.consumer_cpu_ns)),
    );
    let (live, all) = p
        .consumers
        .iter()
        .map(|c| c.stats())
        .fold((0, 0), |(l, a), s| (l + s.live, a + s.delivered));
    m.insert("consumer.live_ratio", live as f64 / all.max(1) as f64);
    m.insert("cluster.scatter_query_ms_p50", med(&reads.scatter_ms));
    let routed: Vec<f64> = scanned.iter().map(|s| s.rest().len() as f64).collect();
    let mean = routed.iter().sum::<f64>() / routed.len() as f64;
    m.insert("cluster.route_skew", routed.iter().copied().fold(0.0, f64::max) / mean.max(1.0));
    let front_degraded = p.front.as_ref().map_or(0, |(_, s)| s.degraded());
    m.insert("cluster.degraded", (front_degraded + reads.scatter_degraded) as f64);
    m.insert("lat.input_wait_ms_p50", percentile(&mut lat.input_wait, 0.5).unwrap_or(f64::NAN));
    m.insert("lat.pipeline_ms_p50", percentile(&mut lat.pipeline, 0.5).unwrap_or(f64::NAN));
    m.insert("gen.late_ms_max", lat.late_max_ms);
    let traced_cpu = sums.cpu_traced_ns as f64 / sums.records.max(1) as f64;
    let untraced_cpu = sums.cpu_untraced_ns as f64 / sums.records_untraced.max(1) as f64;
    m.insert("trace.overhead_pct", (traced_cpu / untraced_cpu - 1.0) * 100.0);

    p.shutdown();
    if trace {
        tracer.write(spec.name).map_err(|e| format!("write trace: {e}"))?;
    }
    Ok(Outcome { correct: findings.is_empty(), attempted, failed, metrics: m, findings, gen_s })
}

/// A shard's store as scanned: every record in seq order, and how many
/// of them are its prefill and warm-up.
struct Scanned {
    recs: Vec<Rec>,
    head: usize,
}

impl Scanned {
    fn rest(&self) -> &[Rec] {
        &self.recs[self.head..]
    }
}

/// Scans every store and checks it against the oracle.
fn check_stores(
    p: &Pipeline,
    inputs: &Inputs,
    log: &[Rec],
    delivered: &[Stream],
    findings: &mut Vec<String>,
) -> Vec<Scanned> {
    let mut out = Vec::new();
    let mut owner: HashMap<String, usize> = HashMap::new();
    for (s, shard) in p.shards.iter().enumerate() {
        let mut recs = Vec::new();
        let mut indexes = Vec::new();
        let mut after = 0u64;
        loop {
            let page = shard.store.query(&StoreQuery::after_seq(after).limit(100_000));
            if page.is_empty() {
                break;
            }
            for e in page {
                if e.seq != after + 1 {
                    findings.push(format!("shard {s}: seq {} follows {after}", e.seq));
                }
                after = e.seq;
                indexes.push(e.event.index);
                recs.push(rec_of(e.event));
            }
        }
        if after != shard.store.last_seq() {
            findings.push(format!(
                "shard {s}: scanned to seq {after}, store ends at {}",
                shard.store.last_seq()
            ));
        }
        let head: Vec<&Rec> = inputs.prefill_recs[s].iter().chain(&inputs.warmup_recs[s]).collect();
        if recs.len() < head.len() || recs.iter().zip(&head).any(|(a, b)| a != *b) {
            findings
                .push(format!("shard {s}: prefill and warm-up are not the store's first events"));
        }
        let head = head.len().min(recs.len());
        let rest = &recs[head..];
        let rest_index = &indexes[head..];
        if rest_index.windows(2).any(|w| w[0] >= w[1]) {
            findings.push(format!("shard {s}: ChangeLog order broken within MDT 0"));
        }
        for r in rest {
            let prev = owner.entry(r.root().to_string()).or_insert(s);
            if *prev != s {
                findings.push(format!("root /{} on shards {prev} and {s}", r.root()));
            }
        }
        // The live consumer saw exactly this shard's events, in order.
        let seen = &delivered[s];
        if seen.digest != Digest::of(rest) {
            findings.push(format!(
                "shard {s}: consumer delivered {} events, store holds {} after warm-up, or order differs",
                seen.digest.count,
                rest.len()
            ));
        }
        if seen.out_of_order > 0 {
            findings.push(format!("shard {s}: delivery broke ChangeLog order"));
        }
        out.push(Scanned { recs, head });
    }
    // Exactly once: the union over shards is the operation log.
    let mut union: Vec<&Rec> = out.iter().flat_map(|s| s.rest()).collect();
    let mut want: Vec<&Rec> = log.iter().collect();
    union.sort();
    want.sort();
    if union != want {
        findings.push(format!(
            "stores hold {} events, the operation log has {}",
            union.len(),
            want.len()
        ));
    }
    // Per-shard order is the log's order restricted to that shard.
    let mut cursors = vec![0usize; out.len()];
    for r in log {
        let Some(&s) = owner.get(r.root()) else { continue };
        if out[s].rest().get(cursors[s]) != Some(r) {
            findings.push(format!("shard {s}: event {} out of log order", cursors[s]));
            break;
        }
        cursors[s] += 1;
    }
    out
}

/// The expected answer of `q` over one shard's history.
fn answer<'a>(q: &StoreQuery, hist: &'a [Rec]) -> Vec<(u64, &'a Rec)> {
    let limit = if q.limit == 0 { usize::MAX } else { q.limit };
    hist.iter()
        .enumerate()
        .map(|(i, r)| (i as u64 + 1, r))
        .filter(|(seq, r)| {
            q.after_seq.is_none_or(|a| *seq > a)
                && q.since.is_none_or(|t| r.time >= t.as_nanos())
                && q.path_prefix.as_ref().is_none_or(|pre| Path::new(&r.path).starts_with(pre))
        })
        .take(limit)
        .collect()
}

/// The expected answer of `q` across shards, merged as the scatter front
/// merges: by seq, ties to the lower shard, then the limit.
fn scatter_answer(q: &StoreQuery, hists: &[&[Rec]]) -> Digest {
    let mut all: Vec<(u64, usize, &Rec)> = hists
        .iter()
        .enumerate()
        .flat_map(|(s, h)| answer(q, h).into_iter().map(move |(seq, r)| (seq, s, r)))
        .collect();
    all.sort_by_key(|(seq, s, _)| (*seq, *s));
    let limit = if q.limit == 0 { usize::MAX } else { q.limit };
    Digest::of(all.into_iter().take(limit).map(|(_, _, r)| r))
}

fn check_reads(
    reads: &Reads,
    scanned: &[Scanned],
    history: &[u64],
    script: &[StoreQuery],
    findings: &mut Vec<String>,
) {
    let hists: Vec<&[Rec]> = scanned
        .iter()
        .zip(history)
        .map(|(s, h)| &s.recs[..(*h as usize).min(s.recs.len())])
        .collect();
    for (s, d) in &reads.replay_digests {
        if *d != Digest::of(hists[*s]) {
            findings.push(format!("replay of shard {s} differs from its history"));
        }
    }
    let front: Vec<Digest> = script.iter().map(|q| scatter_answer(q, &hists)).collect();
    let direct: Vec<Digest> = script
        .iter()
        .map(|q| Digest::of(answer(q, hists[0]).into_iter().map(|(_, r)| r)))
        .collect();
    let checks = [
        ("front", &reads.query_digests, &front),
        ("scatter", &reads.scatter_digests, &front),
        ("direct", &reads.direct_digests, &direct),
    ];
    for (what, got, want) in checks {
        if let Some((i, d)) = got.iter().find(|(i, d)| *d != want[*i]) {
            findings.push(format!(
                "{what} query {i}: {} results, expected {}",
                d.count, want[*i].count
            ));
        }
    }
}
