//! The three seeded workloads, the content every file holds, and the
//! generator's model of the tree that every result is checked against.
//!
//! File contents are a pure function of (seed, creation path, offset),
//! so any byte read back can be regenerated and compared. Each workload
//! preloads a live set during set-up and keeps it constant while timed:
//! every new file replaces the oldest one.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::Bytes;
use sorrento::client::ClientOp;
use sorrento::store::WritePayload;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

/// Which workload to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Small-file write sessions (paper fig. 9/10).
    SmallWrite,
    /// Reads, stats and listings over a preloaded small-file tree.
    SmallRead,
    /// Large sequential writes interleaved with reads of older files
    /// (paper fig. 11, BTIO-like).
    Large,
}

impl Kind {
    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "smallfile-write" => Some(Kind::SmallWrite),
            "smallfile-read" => Some(Kind::SmallRead),
            "largefile" => Some(Kind::Large),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SmallWrite => "smallfile-write",
            Kind::SmallRead => "smallfile-read",
            Kind::Large => "largefile",
        }
    }
}

/// Latency class an op is reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// mkdir, create, stat, ls, unlink, rename.
    Meta,
    /// Open of an existing file.
    Open,
    /// Close with pending writes (the 2PC commit).
    Commit,
    /// Read of file data.
    Read,
    /// Write into the open file.
    Write,
    /// Close without pending writes.
    Close,
}

impl Class {
    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Meta => "meta",
            Class::Open => "open",
            Class::Commit => "commit",
            Class::Read => "read",
            Class::Write => "write",
            Class::Close => "close",
        }
    }
}

/// What a correct result of one op looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Success; nothing returned to check.
    Ok,
    /// The seeded content of file `fid` at `offset..offset + len`.
    Data { fid: u64, offset: u64, len: u64 },
    /// A `stat` size.
    Size(u64),
    /// An `ls` listing (sorted names).
    Listing(Vec<String>),
    /// Success of a write whose payload is the seeded content of file
    /// `fid` at `offset..offset + len`; the op carries a placeholder until
    /// [`Planned::materialize`] fills it in.
    Written { fid: u64, offset: u64, len: u64 },
}

/// One generated op with its class and expected result.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The op handed to the client.
    pub op: ClientOp,
    /// Latency class.
    pub class: Class,
    /// Expected outcome.
    pub expect: Expect,
}

impl Planned {
    /// The op with its write payload (if any) generated from the seed.
    pub fn materialize(&self, seed: u64) -> ClientOp {
        match (&self.op, &self.expect) {
            (ClientOp::Write { offset, .. }, &Expect::Written { fid, len, .. }) => {
                ClientOp::Write {
                    offset: *offset,
                    payload: WritePayload::Real(Bytes::from(content(seed, fid, *offset, len))),
                }
            }
            (op, _) => op.clone(),
        }
    }
}

/// Ops that belong together (an open file never spans two steps), so a
/// batch may end after any step.
pub type Step = Vec<Planned>;

/// splitmix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Identity of a file's content: a hash of the path it was created at
/// (renames keep it).
pub fn file_id(path: &str) -> u64 {
    path.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The bytes file `fid` holds at `offset..offset + len` under `seed`.
pub fn content(seed: u64, fid: u64, offset: u64, len: u64) -> Vec<u8> {
    let key = mix(seed ^ mix(fid));
    let mut out = Vec::with_capacity(len as usize);
    let mut pos = offset;
    let end = offset + len;
    while pos < end {
        let word = mix(key ^ (pos / 8)).to_le_bytes();
        let from = (pos % 8) as usize;
        let take = (8 - from).min((end - pos) as usize);
        out.extend_from_slice(&word[from..from + take]);
        pos += take as u64;
    }
    out
}

/// A small deterministic RNG (splitmix64 stream).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// True with probability `permille / 1000`.
    pub fn chance(&mut self, permille: u64) -> bool {
        self.next_u64() % 1000 < permille
    }
}

/// A live file in the model.
#[derive(Debug, Clone, Copy)]
struct FileInfo {
    fid: u64,
    size: u64,
}

/// The generator's view of the tree.
#[derive(Debug, Default, Clone)]
struct Model {
    files: BTreeMap<String, FileInfo>,
    dirs: BTreeMap<String, BTreeSet<String>>,
}

fn split(path: &str) -> (&str, &str) {
    let cut = path.rfind('/').expect("absolute path");
    (if cut == 0 { "/" } else { &path[..cut] }, &path[cut + 1..])
}

impl Model {
    fn add_dir(&mut self, path: &str) {
        let (parent, name) = split(path);
        self.dirs
            .entry(parent.to_string())
            .or_default()
            .insert(name.to_string());
        self.dirs.entry(path.to_string()).or_default();
    }

    fn add_file(&mut self, path: &str, info: FileInfo) {
        let (parent, name) = split(path);
        self.dirs
            .entry(parent.to_string())
            .or_default()
            .insert(name.to_string());
        self.files.insert(path.to_string(), info);
    }

    fn remove_file(&mut self, path: &str) -> FileInfo {
        let (parent, name) = split(path);
        self.dirs.get_mut(parent).map(|d| d.remove(name));
        self.files.remove(path).expect("file in model")
    }

    fn listing(&self, dir: &str) -> Vec<String> {
        self.dirs
            .get(dir)
            .map(|d| d.iter().cloned().collect())
            .unwrap_or_default()
    }
}

/// Small-file sizes: 1 B to 60 KiB, the attachable range.
const SMALL_MAX: u64 = 60 * KIB;
/// Files per directory before smallfile-write makes a new one.
const DIR_FILES: u64 = 64;
/// Files smallfile-write keeps live.
const SW_LIVE: usize = 256;
/// Rename share of smallfile-write steps, in permille.
const SW_RENAME_PERMILLE: u64 = 30;
/// smallfile-read tree shape: directories × files.
const SR_DIRS: u64 = 8;
const SR_FILES_PER_DIR: u64 = 32;
/// largefile: file size, files kept live, and the write/read unit.
const LF_FILE: u64 = 16 * MIB;
const LF_LIVE: usize = 3;
const LF_IO: u64 = MIB;

/// Seeded op generator for one workload.
pub struct Generator {
    kind: Kind,
    rng: Rng,
    model: Model,
    /// Live files, oldest first.
    live: VecDeque<String>,
    /// Monotonic name counter.
    next_name: u64,
    /// smallfile-write: current directory and names made in it.
    dir_no: u64,
    dir_used: u64,
}

impl Generator {
    /// A generator for `kind` under `seed`.
    pub fn new(kind: Kind, seed: u64) -> Generator {
        let salt = match kind {
            Kind::SmallWrite => 0x5713,
            Kind::SmallRead => 0x5a3d,
            Kind::Large => 0x1a46,
        };
        Generator {
            kind,
            rng: Rng::new(mix(seed ^ salt)),
            model: Model::default(),
            live: VecDeque::new(),
            next_name: 0,
            dir_no: 0,
            dir_used: 0,
        }
    }

    /// The workload's root directory.
    pub fn root(&self) -> &'static str {
        match self.kind {
            Kind::SmallWrite => "/sw",
            Kind::SmallRead => "/sr",
            Kind::Large => "/lf",
        }
    }

    /// Steps that build the live set (run during set-up, untimed): the
    /// directories, in order, then file steps that may run in any order.
    pub fn preload(&mut self) -> (Vec<Step>, Vec<Step>) {
        let root = self.root();
        let mut dirs = vec![vec![self.mkdir(root)]];
        let mut files = Vec::new();
        match self.kind {
            Kind::SmallWrite => {
                dirs.push(vec![self.mkdir(&self.dir_path())]);
                for _ in 0..SW_LIVE {
                    files.push(self.small_create());
                }
            }
            Kind::SmallRead => {
                for d in 0..SR_DIRS {
                    let dir = format!("{root}/d{d:02}");
                    dirs.push(vec![self.mkdir(&dir)]);
                    for f in 0..SR_FILES_PER_DIR {
                        let size = self.rng.range(1, SMALL_MAX);
                        files.push(self.write_file(&format!("{dir}/f{f:03}"), size, size));
                    }
                }
            }
            Kind::Large => {
                for _ in 0..LF_LIVE {
                    files.push(self.large_write());
                }
            }
        }
        (dirs, files)
    }

    /// The next timed step.
    pub fn next_step(&mut self) -> Step {
        match self.kind {
            Kind::SmallWrite => self.small_write_step(),
            Kind::SmallRead => self.small_read_step(),
            Kind::Large => {
                // Read back as much as is written, from an older file.
                let mut step = self.large_read();
                step.extend(self.large_write());
                step.push(self.unlink_oldest());
                step
            }
        }
    }

    /// User bytes currently live.
    pub fn live_bytes(&self) -> u64 {
        self.model.files.values().map(|f| f.size).sum()
    }

    /// Sizes of the live files.
    pub fn live_sizes(&self) -> Vec<u64> {
        self.model.files.values().map(|f| f.size).collect()
    }

    fn mkdir(&mut self, path: &str) -> Planned {
        self.model.add_dir(path);
        Planned {
            op: ClientOp::Mkdir {
                path: path.to_string(),
            },
            class: Class::Meta,
            expect: Expect::Ok,
        }
    }

    fn dir_path(&self) -> String {
        format!("{}/d{:04}", self.root(), self.dir_no)
    }

    /// Create `path` and write `size` bytes in `unit`-sized writes, then
    /// close (commit).
    fn write_file(&mut self, path: &str, size: u64, unit: u64) -> Step {
        let fid = file_id(path);
        let mut step = vec![Planned {
            op: ClientOp::Create {
                path: path.to_string(),
            },
            class: Class::Meta,
            expect: Expect::Ok,
        }];
        let mut offset = 0;
        while offset < size {
            let len = unit.min(size - offset);
            step.push(Planned {
                op: ClientOp::Write {
                    offset,
                    payload: WritePayload::Synthetic { len },
                },
                class: Class::Write,
                expect: Expect::Written { fid, offset, len },
            });
            offset += len;
        }
        step.push(Planned {
            op: ClientOp::Close,
            class: Class::Commit,
            expect: Expect::Ok,
        });
        self.model.add_file(path, FileInfo { fid, size });
        self.live.push_back(path.to_string());
        step
    }

    fn fresh_name(&mut self, prefix: char) -> String {
        self.next_name += 1;
        self.dir_used += 1;
        format!("{}/{prefix}{:06}", self.dir_path(), self.next_name)
    }

    fn small_create(&mut self) -> Step {
        let path = self.fresh_name('f');
        let size = self.rng.range(1, SMALL_MAX);
        self.write_file(&path, size, size)
    }

    fn unlink_oldest(&mut self) -> Planned {
        let path = self.live.pop_front().expect("live set is never empty");
        self.model.remove_file(&path);
        Planned {
            op: ClientOp::Unlink { path },
            class: Class::Meta,
            expect: Expect::Ok,
        }
    }

    fn small_write_step(&mut self) -> Step {
        let mut step = Vec::new();
        if self.dir_used >= DIR_FILES {
            self.dir_no += 1;
            self.dir_used = 0;
            step.push(self.mkdir(&self.dir_path()));
        }
        step.extend(self.small_create());
        step.push(self.unlink_oldest());
        if self.rng.chance(SW_RENAME_PERMILLE) {
            // Move a random live file (not the one just written) into the
            // current directory under a fresh name.
            let i = self.rng.range(0, self.live.len() as u64 - 2) as usize;
            let src = self.live[i].clone();
            let dst = self.fresh_name('r');
            let info = self.model.remove_file(&src);
            self.model.add_file(&dst, info);
            self.live[i] = dst.clone();
            step.push(Planned {
                op: ClientOp::Rename { src, dst },
                class: Class::Meta,
                expect: Expect::Ok,
            });
        }
        step
    }

    fn pick_live(&mut self) -> (String, FileInfo) {
        let i = self.rng.range(0, self.live.len() as u64 - 1) as usize;
        let path = self.live[i].clone();
        let info = self.model.files[&path];
        (path, info)
    }

    fn small_read_step(&mut self) -> Step {
        let roll = self.rng.range(0, 99);
        if roll < 60 {
            let (path, info) = self.pick_live();
            let (offset, len) = if self.rng.chance(500) {
                (0, info.size)
            } else {
                let offset = self.rng.range(0, info.size - 1);
                (offset, self.rng.range(1, info.size - offset))
            };
            vec![
                Planned {
                    op: ClientOp::Open { path, write: false },
                    class: Class::Open,
                    expect: Expect::Ok,
                },
                Planned {
                    op: ClientOp::Read { offset, len },
                    class: Class::Read,
                    expect: Expect::Data {
                        fid: info.fid,
                        offset,
                        len,
                    },
                },
                Planned {
                    op: ClientOp::Close,
                    class: Class::Close,
                    expect: Expect::Ok,
                },
            ]
        } else if roll < 85 {
            let (path, info) = self.pick_live();
            vec![Planned {
                op: ClientOp::Stat { path },
                class: Class::Meta,
                expect: Expect::Size(info.size),
            }]
        } else {
            let dir = format!("{}/d{:02}", self.root(), self.rng.range(0, SR_DIRS - 1));
            let names = self.model.listing(&dir);
            vec![Planned {
                op: ClientOp::List { path: dir },
                class: Class::Meta,
                expect: Expect::Listing(names),
            }]
        }
    }

    fn large_write(&mut self) -> Step {
        self.next_name += 1;
        let path = format!("{}/f{:06}", self.root(), self.next_name);
        self.write_file(&path, LF_FILE, LF_IO)
    }

    /// Open a live file and read as many bytes as a file holds, in
    /// `LF_IO` reads at seeded offsets.
    fn large_read(&mut self) -> Step {
        let (path, info) = self.pick_live();
        let mut step = vec![Planned {
            op: ClientOp::Open { path, write: false },
            class: Class::Open,
            expect: Expect::Ok,
        }];
        for _ in 0..LF_FILE / LF_IO {
            let offset = self.rng.range(0, info.size - LF_IO);
            step.push(Planned {
                op: ClientOp::Read { offset, len: LF_IO },
                class: Class::Read,
                expect: Expect::Data {
                    fid: info.fid,
                    offset,
                    len: LF_IO,
                },
            });
        }
        step.push(Planned {
            op: ClientOp::Close,
            class: Class::Close,
            expect: Expect::Ok,
        });
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A step list in a comparable form: op, class and expectation.
    fn fingerprint(steps: &[Step]) -> Vec<String> {
        steps
            .iter()
            .flatten()
            .map(|p| format!("{:?}|{:?}|{:?}", p.op, p.class, p.expect))
            .collect()
    }

    fn run(kind: Kind, seed: u64, steps: usize) -> Vec<String> {
        let mut g = Generator::new(kind, seed);
        let (mut all, files) = g.preload();
        all.extend(files);
        all.extend((0..steps).map(|_| g.next_step()));
        fingerprint(&all)
    }

    #[test]
    fn same_seed_same_ops() {
        for kind in [Kind::SmallWrite, Kind::SmallRead, Kind::Large] {
            assert_eq!(run(kind, 7, 40), run(kind, 7, 40), "{kind:?}");
        }
    }

    #[test]
    fn different_seed_different_ops() {
        for kind in [Kind::SmallWrite, Kind::SmallRead, Kind::Large] {
            assert_ne!(run(kind, 7, 40), run(kind, 8, 40), "{kind:?}");
        }
    }

    #[test]
    fn materialized_writes_carry_the_seeded_content() {
        let mut g = Generator::new(Kind::SmallWrite, 2);
        let step = g.preload().1.pop().unwrap();
        let write = step.iter().find(|p| p.class == Class::Write).unwrap();
        let Expect::Written { fid, offset, len } = write.expect else {
            panic!()
        };
        match write.materialize(2) {
            ClientOp::Write {
                payload: WritePayload::Real(b),
                ..
            } => {
                assert_eq!(b.to_vec(), content(2, fid, offset, len))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn content_is_position_addressed() {
        let whole = content(3, 99, 0, 100);
        assert_eq!(content(3, 99, 13, 50), whole[13..63].to_vec());
        assert_ne!(content(4, 99, 0, 100), whole);
        assert_ne!(content(3, 98, 0, 100), whole);
    }

    #[test]
    fn live_set_stays_constant_while_timed() {
        for kind in [Kind::SmallWrite, Kind::Large] {
            let mut g = Generator::new(kind, 1);
            g.preload();
            let files = g.live.len();
            for _ in 0..300 {
                g.next_step();
                assert_eq!(g.live.len(), files, "{kind:?}");
                assert_eq!(g.model.files.len(), files, "{kind:?}");
            }
        }
    }

    #[test]
    fn listings_follow_renames_and_unlinks() {
        let mut g = Generator::new(Kind::SmallWrite, 5);
        g.preload();
        for _ in 0..500 {
            g.next_step();
        }
        let listed: usize = g
            .model
            .dirs
            .iter()
            .filter(|(d, _)| d.starts_with("/sw/"))
            .map(|(_, names)| names.len())
            .sum();
        assert_eq!(listed, g.live.len());
        for path in &g.live {
            let (dir, name) = split(path);
            assert!(g.model.listing(dir).contains(&name.to_string()), "{path}");
        }
    }

    #[test]
    fn reads_stay_inside_their_file() {
        for kind in [Kind::SmallRead, Kind::Large] {
            let mut g = Generator::new(kind, 11);
            g.preload();
            for _ in 0..400 {
                let sizes: BTreeMap<u64, u64> =
                    g.model.files.values().map(|f| (f.fid, f.size)).collect();
                for p in g.next_step() {
                    if let (ClientOp::Read { offset, len }, Expect::Data { fid, .. }) =
                        (&p.op, &p.expect)
                    {
                        let size = sizes[fid];
                        assert!(
                            *len >= 1 && offset + len <= size,
                            "{kind:?} {offset}+{len} > {size}"
                        );
                    }
                }
            }
        }
    }
}
