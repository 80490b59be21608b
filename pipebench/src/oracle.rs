//! The benchmark's own model of the filesystem and of the events the
//! monitor must report.
//!
//! Operations are drawn from a [`Namespace`] model that tracks which files
//! exist and where; each operation knows the ChangeLog records it must
//! produce, with paths taken from the model alone. Nothing here asks the
//! simulated filesystem (or its `fid2path`) what a path is, so the checks
//! built on these records are independent of the code under test.

use lustre_sim::{LustreError, LustreFs};
use sdci_types::{ChangelogKind, SimTime};

/// A small, seedable PRNG (SplitMix64): identical seeds give identical
/// inputs on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Relative weights of file operations.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub create: u32,
    pub write: u32,
    pub unlink: u32,
    pub rename: u32,
}

impl Mix {
    /// Create-heavy ingest, the weights of `OpMix::ingest`.
    pub const INGEST: Mix = Mix { create: 8, write: 2, unlink: 1, rename: 0 };
    /// Churn with one file rename in ten operations.
    pub const CHURN: Mix = Mix { create: 4, write: 3, unlink: 2, rename: 1 };

    fn total(&self) -> u32 {
        self.create + self.write + self.unlink + self.rename
    }
}

/// One file operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Create(String),
    Write(String),
    Unlink(String),
    Rename { from: String, to: String },
}

/// One event the monitor must report: ChangeLog kind, absolute path and
/// the operation's time stamp (which identifies the operation).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rec {
    pub time: u64,
    pub kind: u8,
    pub path: String,
}

impl Rec {
    pub fn new(time: u64, kind: ChangelogKind, path: impl Into<String>) -> Rec {
        Rec { time, kind: kind.code(), path: path.into() }
    }

    /// The first path component, which the sharded tier routes by.
    pub fn root(&self) -> &str {
        path_root(&self.path)
    }
}

/// The first component of an absolute path (`"/a/b"` → `"a"`).
pub fn path_root(path: &str) -> &str {
    path.trim_start_matches('/').split('/').next().unwrap_or("")
}

impl Op {
    /// The records this operation appends to the ChangeLog, in order.
    pub fn records(&self, time: u64) -> Vec<Rec> {
        match self {
            Op::Create(p) => vec![Rec::new(time, ChangelogKind::Create, p.as_str())],
            Op::Write(p) => vec![Rec::new(time, ChangelogKind::MtimeChange, p.as_str())],
            Op::Unlink(p) => vec![Rec::new(time, ChangelogKind::Unlink, p.as_str())],
            Op::Rename { from, to } => vec![
                Rec::new(time, ChangelogKind::Rename, from.as_str()),
                Rec::new(time, ChangelogKind::RenameTarget, to.as_str()),
            ],
        }
    }

    /// Applies the operation to the simulated filesystem at `time`.
    pub fn apply(&self, fs: &mut LustreFs, time: u64) -> Result<(), LustreError> {
        let now = SimTime::from_nanos(time);
        match self {
            Op::Create(p) => fs.create(p, now).map(|_| ()),
            Op::Write(p) => fs.write(p, 4096, now),
            Op::Unlink(p) => fs.unlink(p, now),
            Op::Rename { from, to } => fs.rename(from, to, now),
        }
    }
}

/// The model of one set of directories and the files living in them.
/// Directories are fixed; files are created, written, removed and
/// renamed between directories.
#[derive(Debug, Clone)]
pub struct Namespace {
    dirs: Vec<String>,
    files: Vec<String>,
    tag: &'static str,
    next_name: u64,
}

impl Namespace {
    /// A model over `dirs`; `tag` prefixes every file name so two models
    /// over the same directories never collide.
    pub fn new(dirs: Vec<String>, tag: &'static str) -> Namespace {
        assert!(!dirs.is_empty(), "a namespace needs at least one directory");
        Namespace { dirs, files: Vec::new(), tag, next_name: 0 }
    }

    /// Files the model holds now.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    fn fresh_name(&mut self, dir_pick: usize, letter: char) -> String {
        let name = format!("{}/{}{letter}{}", self.dirs[dir_pick], self.tag, self.next_name);
        self.next_name += 1;
        name
    }

    /// Draws the next operation from `mix` and updates the model.
    pub fn next_op(&mut self, rng: &mut Rng, mix: Mix) -> Op {
        let draw = rng.below(mix.total() as usize) as u32;
        if draw < mix.create || self.files.is_empty() {
            let dir = rng.below(self.dirs.len());
            let path = self.fresh_name(dir, 'f');
            self.files.push(path.clone());
            return Op::Create(path);
        }
        let idx = rng.below(self.files.len());
        if draw < mix.create + mix.write {
            return Op::Write(self.files[idx].clone());
        }
        if draw < mix.create + mix.write + mix.unlink {
            return Op::Unlink(self.files.swap_remove(idx));
        }
        let dir = rng.below(self.dirs.len());
        let to = self.fresh_name(dir, 'r');
        let from = std::mem::replace(&mut self.files[idx], to.clone());
        Op::Rename { from, to }
    }
}

/// FNV-1a over a sequence of records: an order-sensitive digest that lets
/// a result be checked later without keeping it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub hash: u64,
    pub count: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest { hash: 0xCBF2_9CE4_8422_2325, count: 0 }
    }
}

impl Digest {
    /// Adds one record.
    pub fn push(&mut self, time: u64, kind: u8, path: &str) {
        let mut h = self.hash;
        for b in time.to_le_bytes().iter().chain([kind].iter()).chain(path.as_bytes()) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
        self.hash = h;
        self.count += 1;
    }

    /// The digest of `recs` in order.
    pub fn of<'a>(recs: impl IntoIterator<Item = &'a Rec>) -> Digest {
        let mut d = Digest::default();
        for r in recs {
            d.push(r.time, r.kind, &r.path);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lustre_sim::LustreConfig;

    fn model() -> Namespace {
        Namespace::new(vec!["/a".into(), "/b".into()], "t")
    }

    #[test]
    fn renamed_file_is_addressed_by_its_new_path() {
        let mut ns = model();
        // Only renames and writes after one create.
        let mut rng = Rng::new(7, 0);
        let create = ns.next_op(&mut rng, Mix { create: 1, write: 0, unlink: 0, rename: 0 });
        let Op::Create(original) = create.clone() else { panic!("first op creates") };
        let rename = ns.next_op(&mut rng, Mix { create: 0, write: 0, unlink: 0, rename: 1 });
        let Op::Rename { from, to } = rename.clone() else { panic!("rename drawn") };
        assert_eq!(from, original);
        assert!(to.contains("/tr"), "renamed files get a fresh r-name: {to}");
        // Later operations see only the new name.
        let write = ns.next_op(&mut rng, Mix { create: 0, write: 1, unlink: 0, rename: 0 });
        assert_eq!(write, Op::Write(to.clone()));
        let unlink = ns.next_op(&mut rng, Mix { create: 0, write: 0, unlink: 1, rename: 0 });
        assert_eq!(unlink, Op::Unlink(to.clone()));
        assert_eq!(ns.file_count(), 0);

        // A rename reports the old path, then the new one, both stamped
        // with the operation's time.
        let recs = rename.records(42);
        assert_eq!(
            recs,
            vec![
                Rec::new(42, ChangelogKind::Rename, from.as_str()),
                Rec::new(42, ChangelogKind::RenameTarget, to.as_str()),
            ]
        );
    }

    #[test]
    fn model_agrees_with_the_simulated_filesystem() {
        // The model must only produce operations the filesystem accepts,
        // and the records the filesystem logs must carry the model's
        // names, in the model's order.
        let mut fs = LustreFs::new(LustreConfig::builder("t").mdt_count(1).build());
        for d in ["/a", "/b"] {
            fs.mkdir(d, SimTime::EPOCH).unwrap();
        }
        let before = fs.changelog(sdci_types::MdtIndex::new(0)).last_index();
        let mut ns = model();
        let mut rng = Rng::new(3, 1);
        let mut expected = Vec::new();
        for t in 1..=500 {
            let op = ns.next_op(&mut rng, Mix::CHURN);
            op.apply(&mut fs, t).unwrap();
            expected.extend(op.records(t));
        }
        let log = fs.changelog(sdci_types::MdtIndex::new(0)).read_from(before, usize::MAX);
        assert_eq!(log.len(), expected.len());
        for (raw, rec) in log.iter().zip(&expected) {
            assert_eq!(raw.kind.code(), rec.kind);
            assert_eq!(raw.time.as_nanos(), rec.time);
            assert!(rec.path.ends_with(&format!("/{}", raw.name)), "{rec:?} vs {}", raw.name);
        }
    }

    #[test]
    fn same_seed_gives_same_operations() {
        let run = |seed| {
            let mut ns = model();
            let mut rng = Rng::new(seed, 2);
            (0..200).map(|_| ns.next_op(&mut rng, Mix::CHURN)).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = Rec::new(1, ChangelogKind::Create, "/a/x");
        let b = Rec::new(2, ChangelogKind::Unlink, "/a/x");
        assert_eq!(Digest::of([&a, &b]), Digest::of([&a, &b]));
        assert_ne!(Digest::of([&a, &b]), Digest::of([&b, &a]));
        assert_eq!(path_root("/h3/d/x"), "h3");
    }
}
