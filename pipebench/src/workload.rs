//! Workload definitions and the seeded inputs each run is built from.

use crate::oracle::{Mix, Namespace, Op, Rec, Rng};
use lustre_sim::{LustreConfig, LustreFs};
use parking_lot::Mutex;
use sdci_core::{CollectorCheckpoint, SequencedEvent, ShardMap, StoreQuery};
use sdci_types::{ChangelogKind, Fid, FileEvent, MdtIndex, SimTime};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

/// Time stamp of every warm-up event.
pub const WARMUP_TIME: u64 = 1;
/// Paced operation `i` is stamped `PACED_BASE + i`.
pub const PACED_BASE: u64 = 1_000;
/// History (prefill and drained) operation `j` is stamped `HIST_BASE + j`:
/// time-window queries above this base can never match a paced event.
pub const HIST_BASE: u64 = 1_000_000_000_000;
/// Warm-up events per shard.
pub const WARMUP_PER_SHARD: usize = 256;
/// Results per historic query page.
pub const QUERY_LIMIT: usize = 256;
/// Queries in the fixed script.
pub const SCRIPT_LEN: usize = 48;

/// Directory layout of the simulated filesystem.
#[derive(Debug, Clone, Copy)]
pub enum Layout {
    /// `dirs` flat directories directly under the root.
    Shallow { dirs: usize },
    /// `leaves` leaf directories, each `depth` components deep, spread
    /// over 8 top-level trees.
    Deep { leaves: usize, depth: usize },
}

/// One workload: its shape and its fixed sizes and rates.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub shards: usize,
    pub layout: Layout,
    pub mix: Mix,
    /// Operations drained before the paced phase, per second of
    /// `--seconds`: the history replays and queries read.
    pub history_ops_per_sec: usize,
    /// Measured drain rounds after the paced phase, each over a freshly
    /// generated ChangeLog backlog.
    pub drain_rounds: usize,
    /// Operations per drain round, per second of `--seconds`.
    pub drain_ops_per_sec: usize,
    /// Open-loop rate of the paced phase, operations per second.
    pub paced_rate: f64,
    /// Length of the paced phase as a share of `--seconds`.
    pub paced_share: f64,
    /// Synthetic history events per shard, per second of `--seconds`,
    /// inserted through the store's insert path during set-up.
    pub prefill_per_sec: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "ingest_shallow",
        shards: 1,
        layout: Layout::Shallow { dirs: 64 },
        mix: Mix::INGEST,
        history_ops_per_sec: 2_000,
        drain_rounds: 30,
        drain_ops_per_sec: 1_000,
        paced_rate: 10_000.0,
        paced_share: 0.5,
        prefill_per_sec: 0,
        setups: 15,
    },
    Spec {
        name: "churn_deep",
        shards: 1,
        layout: Layout::Deep { leaves: 6_000, depth: 8 },
        mix: Mix::CHURN,
        history_ops_per_sec: 3_000,
        drain_rounds: 20,
        drain_ops_per_sec: 300,
        paced_rate: 2_000.0,
        paced_share: 0.5,
        prefill_per_sec: 0,
        setups: 15,
    },
    Spec {
        name: "history_sharded",
        shards: 2,
        layout: Layout::Shallow { dirs: 32 },
        mix: Mix::INGEST,
        history_ops_per_sec: 1_000,
        drain_rounds: 30,
        drain_ops_per_sec: 1_200,
        paced_rate: 5_000.0,
        paced_share: 0.5,
        prefill_per_sec: 2_000,
        setups: 15,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }
}

/// Everything a run needs, generated from the seed before any role
/// starts. None of this work is timed.
pub struct Inputs {
    pub fs: Arc<Mutex<LustreFs>>,
    /// The ChangeLog user registered before the backlog was written; the
    /// collector resumes from it.
    pub checkpoint: CollectorCheckpoint,
    /// The history round, drained before the paced phase.
    pub history: Vec<(u64, Op)>,
    /// Measured drain rounds, applied to the filesystem one at a time.
    pub drain: Vec<Vec<(u64, Op)>>,
    /// The paced schedule, in order; operation `i` is due at `i / rate`.
    pub paced: Vec<Op>,
    /// Synthetic history per shard, already sequenced from 1.
    pub prefill: Vec<Vec<SequencedEvent>>,
    pub prefill_recs: Vec<Vec<Rec>>,
    pub warmup: Vec<FileEvent>,
    pub warmup_recs: Vec<Vec<Rec>>,
    pub script: Vec<StoreQuery>,
}

fn dirs_for(layout: Layout, prefix: &str, rng: &mut Rng) -> Vec<String> {
    match layout {
        Layout::Shallow { dirs } => (0..dirs).map(|i| format!("/{prefix}{i}")).collect(),
        Layout::Deep { leaves, depth } => {
            let mut seen = HashSet::new();
            let mut out = Vec::with_capacity(leaves);
            while out.len() < leaves {
                let mut path = format!("/{prefix}{}", rng.below(8));
                for _ in 1..depth {
                    path.push_str(&format!("/n{}", rng.below(4)));
                }
                if seen.insert(path.clone()) {
                    out.push(path);
                }
            }
            out
        }
    }
}

fn synthetic(rec: &Rec, index: u64) -> FileEvent {
    let kind = ChangelogKind::from_code(rec.kind).expect("record kinds come from ChangelogKind");
    FileEvent {
        index,
        mdt: MdtIndex::new(0),
        changelog_kind: kind,
        kind: kind.event_kind(),
        time: SimTime::from_nanos(rec.time),
        path: rec.path.clone().into(),
        src_path: None,
        target: Fid::ZERO,
        is_dir: false,
        extracted_unix_ns: None,
        trace: None,
    }
}

/// Slot of the shard that owns `path` in a tier of `shards` — used only
/// to place the benchmark's own synthetic input where the router would.
pub fn owner(shards: usize, path: &str) -> usize {
    let map = ShardMap::new((0..shards).map(|i| format!("127.0.0.1:{}", 1 + i)));
    map.route_index(Path::new(path), Fid::ZERO)
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64, seconds: u64) -> Result<Inputs, String> {
        // The directory tree is the same for every seed, so seeds vary
        // the operations and not the shape the collector resolves.
        let mut layout_rng = Rng::new(0, 1);
        let (hist_prefix, live_prefix) = match spec.layout {
            Layout::Shallow { .. } => ("d", "p"),
            Layout::Deep { .. } => ("c", "q"),
        };
        let drain_dirs = dirs_for(spec.layout, hist_prefix, &mut layout_rng);
        let live_layout = match spec.layout {
            Layout::Shallow { .. } => Layout::Shallow { dirs: 16 },
            Layout::Deep { depth, .. } => Layout::Deep { leaves: 256, depth },
        };
        let live_dirs = dirs_for(live_layout, live_prefix, &mut layout_rng);

        // Operation lists, from the models alone.
        let mut drain_ns = Namespace::new(drain_dirs.clone(), "");
        let mut drain_rng = Rng::new(seed, 2);
        let per_round = spec.drain_ops_per_sec * seconds as usize;
        let prefill_ops = spec.prefill_per_sec * seconds as usize * spec.shards;
        let mut next_hist = prefill_ops as u64;
        let mut round = |ops: usize| -> Vec<(u64, Op)> {
            (0..ops)
                .map(|_| {
                    next_hist += 1;
                    (HIST_BASE + next_hist, drain_ns.next_op(&mut drain_rng, spec.mix))
                })
                .collect()
        };
        let history = round(spec.history_ops_per_sec * seconds as usize);
        let drain: Vec<Vec<(u64, Op)>> = (0..spec.drain_rounds).map(|_| round(per_round)).collect();
        let hist_ops = prefill_ops + history.len();
        let mut live_ns = Namespace::new(live_dirs.clone(), "");
        let mut live_rng = Rng::new(seed, 3);
        let paced_len = (spec.paced_rate * spec.paced_share * seconds as f64) as usize;
        let paced: Vec<Op> =
            (0..paced_len).map(|_| live_ns.next_op(&mut live_rng, spec.mix)).collect();

        // The filesystem: directories, then sized for the run's peak file
        // count so no hash table grows while the paced phase is timed.
        let mut fs = LustreFs::new(LustreConfig::builder("pipebench").mdt_count(1).build());
        for d in drain_dirs.iter().chain(&live_dirs) {
            fs.mkdir_all(d, SimTime::EPOCH).map_err(|e| format!("mkdir {d}: {e}"))?;
        }
        let peak = drain_ns.file_count() + live_ns.file_count();
        let all_dirs: Vec<&String> = drain_dirs.iter().chain(&live_dirs).collect();
        let sizing: Vec<String> = (0..peak + peak / 8)
            .map(|i| format!("{}/.size{i}", all_dirs[i % all_dirs.len()]))
            .collect();
        for p in &sizing {
            fs.create(p, SimTime::EPOCH).map_err(|e| format!("size {p}: {e}"))?;
        }
        for p in &sizing {
            fs.unlink(p, SimTime::EPOCH).map_err(|e| format!("size {p}: {e}"))?;
        }
        let mdt = MdtIndex::new(0);
        let log = fs.changelog_mut(mdt);
        log.purge();
        let user = log.register_user();
        let checkpoint = CollectorCheckpoint { mdt, user, last_acked: log.last_index() };

        // Synthetic history, placed on the shard the router would pick.
        let mut prefill = vec![Vec::new(); spec.shards];
        let mut prefill_recs = vec![Vec::new(); spec.shards];
        if prefill_ops > 0 {
            let hist_dirs: Vec<String> = (0..32).map(|i| format!("/h{i}")).collect();
            let mut ns = Namespace::new(hist_dirs, "");
            let mut rng = Rng::new(seed, 4);
            for j in 0..prefill_ops as u64 {
                for rec in ns.next_op(&mut rng, spec.mix).records(HIST_BASE + 1 + j) {
                    let s = owner(spec.shards, &rec.path);
                    let seq = prefill[s].len() as u64 + 1;
                    prefill[s].push(SequencedEvent { seq, event: synthetic(&rec, seq) });
                    prefill_recs[s].push(rec);
                }
            }
        }

        // Warm-up: a fixed batch per shard under a root that shard owns.
        let mut warmup = Vec::new();
        let mut warmup_recs = vec![Vec::new(); spec.shards];
        for (s, recs) in warmup_recs.iter_mut().enumerate() {
            let root = (0..)
                .map(|k| format!("/w{k}"))
                .find(|r| owner(spec.shards, r) == s)
                .expect("some root routes to every shard");
            for i in 0..WARMUP_PER_SHARD {
                let rec = Rec::new(WARMUP_TIME, ChangelogKind::Create, format!("{root}/warm{i}"));
                warmup.push(synthetic(&rec, i as u64 + 1));
                recs.push(rec);
            }
        }

        // The query script. Pages stay inside the history every shard
        // holds before the paced phase, so every answer is fixed.
        let mut shard_hist: Vec<usize> =
            (0..spec.shards).map(|s| prefill_recs[s].len() + WARMUP_PER_SHARD).collect();
        for (_, op) in &history {
            for rec in op.records(0) {
                shard_hist[owner(spec.shards, &rec.path)] += 1;
            }
        }
        let min_hist = shard_hist.iter().copied().min().unwrap_or(0);
        let mut qrng = Rng::new(seed, 5);
        let prefix_dirs: Vec<String> = match spec.layout {
            // Three components down a deep tree, so a prefix spans leaves.
            Layout::Deep { .. } => drain_dirs
                .iter()
                .map(|d| d.split('/').take(4).collect::<Vec<_>>().join("/"))
                .collect(),
            Layout::Shallow { .. } => {
                let mut v = drain_dirs.clone();
                if prefill_ops > 0 {
                    v.extend((0..32).map(|i| format!("/h{i}")));
                }
                v
            }
        };
        // Costs depend on where in the history a query starts, so the
        // script's positions are fixed fractions of the history; the seed
        // picks only among directories that cost the same.
        let script = (0..SCRIPT_LEN)
            .map(|i| {
                let at = (i / 3) as f64 / (SCRIPT_LEN / 3) as f64;
                match i % 3 {
                    0 => StoreQuery::after_seq(0)
                        .under(prefix_dirs[qrng.below(prefix_dirs.len())].clone())
                        .limit(QUERY_LIMIT),
                    1 => StoreQuery::since(SimTime::from_nanos(
                        HIST_BASE + 1 + (at * hist_ops as f64) as u64,
                    ))
                    .limit(QUERY_LIMIT),
                    _ => StoreQuery::after_seq(
                        (at * min_hist.saturating_sub(QUERY_LIMIT) as f64) as u64,
                    )
                    .limit(QUERY_LIMIT),
                }
            })
            .collect();

        Ok(Inputs {
            fs: Arc::new(Mutex::new(fs)),
            checkpoint,
            history,
            drain,
            paced,
            prefill,
            prefill_recs,
            warmup,
            warmup_recs,
            script,
        })
    }
}
