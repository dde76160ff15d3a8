//! Seeded input generators. Each generator also writes down what a correct
//! run must produce, from its own bookkeeping: the output checks compare
//! against these expectations and share no code with the program.
//!
//! Sizes are fixed; the seed chooses names, placement, contents and
//! request mixes. Two seeds therefore give inputs of equal size, so a
//! metric's spread across seeds is run-to-run noise, not input size.

use shill::binaries::tar::{pack, Entry};

/// SplitMix64: a small, well-mixed generator owned by the benchmark.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5348_494c_4c5f_4245)
    }

    /// A generator for the `i`-th item of stream `stream` under `seed`.
    pub fn derive(seed: u64, stream: u64, i: u64) -> Rng {
        let mut r = Rng::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.0 ^= i.wrapping_mul(0xd1b5_4a32_d192_ed03);
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `len` characters from `[a-z0-9]` without `m`, so generated text
    /// never spells the find pattern by chance.
    pub fn word(&mut self, len: usize) -> String {
        const ALPHA: &[u8] = b"abcdefghijklnopqrstuvwxyz0123456789";
        (0..len)
            .map(|_| ALPHA[self.below(ALPHA.len())] as char)
            .collect()
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The pattern the find task's `grep` looks for (fixed by the task script).
pub const FIND_PATTERN: &str = "mac_";

/// Top-level subtrees: the find task runs one request per subtree.
pub const FIND_SUBTREES: usize = 8;
/// `.c` files per subtree: one `grep` sandbox each.
pub const FIND_C_PER_SUBTREE: usize = 32;
/// Pattern-bearing `.c` files per subtree.
pub const FIND_HITS_PER_SUBTREE: usize = 4;
/// Non-`.c` files per subtree; half of them also contain the pattern, so a
/// broken extension filter shows up as extra matches.
pub const FIND_OTHER_PER_SUBTREE: usize = 24;
/// Directories per subtree below its root.
const FIND_DIRS_PER_SUBTREE: usize = 6;

/// A seeded source tree under `/usr/src`.
pub struct FindTree {
    /// Absolute subtree roots, one find request each.
    pub subtrees: Vec<String>,
    /// Every file to create: absolute path and contents.
    pub files: Vec<(String, Vec<u8>)>,
    /// Per subtree, the sorted `path:line` lines `grep -H` must print.
    pub expected: Vec<Vec<String>>,
}

fn c_line(rng: &mut Rng) -> String {
    match rng.below(4) {
        0 => format!("int v{} = {};", rng.word(6), rng.below(1000)),
        1 => format!(
            "static long w{}(int x) {{ return x + {}; }}",
            rng.word(5),
            rng.below(99)
        ),
        2 => format!("/* {} {} */", rng.word(8), rng.word(4)),
        _ => format!(
            "#define K{} {}",
            rng.word(5).to_uppercase(),
            rng.below(4096)
        ),
    }
}

fn pattern_line(rng: &mut Rng) -> String {
    format!(
        "  return {FIND_PATTERN}vnode_check_{}(v{});",
        rng.word(5),
        rng.word(4)
    )
}

pub fn find_tree(seed: u64) -> FindTree {
    let mut rng = Rng::derive(seed, 1, 0);
    let mut tree = FindTree {
        subtrees: Vec::new(),
        files: Vec::new(),
        expected: Vec::new(),
    };
    for s in 0..FIND_SUBTREES {
        let root = format!("/usr/src/{}{s}", rng.word(4));
        // Directories: the root plus nested dirs at depth 1-3.
        let mut dirs = vec![root.clone()];
        for _ in 0..FIND_DIRS_PER_SUBTREE {
            let parent = dirs[rng.below(dirs.len())].clone();
            dirs.push(format!("{parent}/d{}", rng.word(5)));
        }
        let mut hits = vec![false; FIND_C_PER_SUBTREE];
        hits[..FIND_HITS_PER_SUBTREE]
            .iter_mut()
            .for_each(|h| *h = true);
        rng.shuffle(&mut hits);
        let mut expected = Vec::new();
        for (i, hit) in hits.into_iter().enumerate() {
            let path = format!("{}/f{i:02}{}.c", dirs[rng.below(dirs.len())], rng.word(5));
            let mut lines: Vec<String> = (0..4 + rng.below(8)).map(|_| c_line(&mut rng)).collect();
            if hit {
                for _ in 0..1 + rng.below(3) {
                    let at = rng.below(lines.len() + 1);
                    lines.insert(at, pattern_line(&mut rng));
                }
                for l in lines.iter().filter(|l| l.contains(FIND_PATTERN)) {
                    expected.push(format!("{path}:{l}"));
                }
            }
            tree.files
                .push((path, (lines.join("\n") + "\n").into_bytes()));
        }
        for i in 0..FIND_OTHER_PER_SUBTREE {
            let ext = ["h", "S", "mk", "txt"][rng.below(4)];
            let path = format!(
                "{}/o{i:02}{}.{ext}",
                dirs[rng.below(dirs.len())],
                rng.word(5)
            );
            let mut body = c_line(&mut rng);
            if i % 2 == 0 {
                body = format!("{body}\n{}", pattern_line(&mut rng));
            }
            tree.files.push((path, (body + "\n").into_bytes()));
        }
        expected.sort();
        tree.subtrees.push(root);
        tree.expected.push(expected);
    }
    tree
}

/// Source files in the generated package.
pub const PKG_SOURCES: usize = 40;

/// A seeded Emacs-like source package, served by the simulated mirror.
pub struct Package {
    /// The archive the mirror serves.
    pub tarball: Vec<u8>,
    /// Sorted names of the `.c` sources under `emacs-24/src`.
    pub sources: Vec<String>,
    /// Sorted object files `make` must leave in `emacs-24/obj`.
    pub objects: Vec<String>,
    /// Sorted regular files `install` must leave under the prefix,
    /// relative to it.
    pub install_manifest: Vec<String>,
}

pub fn package(seed: u64) -> Package {
    let mut rng = Rng::derive(seed, 2, 0);
    let mut entries = vec![
        Entry::Dir {
            path: "emacs-24".into(),
        },
        Entry::Dir {
            path: "emacs-24/src".into(),
        },
        Entry::Dir {
            path: "emacs-24/etc".into(),
        },
        Entry::File {
            path: "emacs-24/configure".into(),
            data: b"#!SIMBIN configure\nNEEDS /lib/libc.so\n".to_vec(),
            mode: 0o755,
        },
        Entry::File {
            path: "emacs-24/README".into(),
            data: format!("GNU Emacs (seeded {})\n", rng.word(8)).into_bytes(),
            mode: 0o644,
        },
    ];
    let mut sources = Vec::new();
    while sources.len() < PKG_SOURCES {
        let name = format!("{}{}.c", rng.word(3), rng.word(5));
        if sources.contains(&name) {
            continue;
        }
        let len = 1536 + rng.below(1024);
        let mut body = format!("/* {name} */\n");
        while body.len() < len {
            body.push_str(&c_line(&mut rng));
            body.push('\n');
        }
        entries.push(Entry::File {
            path: format!("emacs-24/src/{name}"),
            data: body.into_bytes(),
            mode: 0o644,
        });
        sources.push(name);
    }
    // Headers are sources too, but configure compiles only `.c` files.
    for _ in 0..4 {
        entries.push(Entry::File {
            path: format!("emacs-24/src/{}.h", rng.word(6)),
            data: format!("{}\n", c_line(&mut rng)).into_bytes(),
            mode: 0o644,
        });
    }
    sources.sort();
    let objects = sources.iter().map(|s| s.replace(".c", ".o")).collect();
    Package {
        tarball: pack(&entries),
        sources,
        objects,
        install_manifest: vec!["bin/emacs".to_string()],
    }
}

/// Tenants the server serves; sessions rotate through them.
pub const TENANTS: usize = 4;
/// Data frames per session (half of them writes).
pub const FRAMES_PER_SESSION: usize = 32;
/// Files a tenant's sessions write (besides the read-only seed).
const TENANT_FILES: usize = 8;
/// The seed file the server creates for every tenant.
pub const SEED_FILE: &str = "seed.txt";
pub const SEED_BYTES: &str = "seed\n";

/// One request frame and the reply the model expects.
pub struct Frame {
    pub line: String,
    pub expect: String,
}

/// One tenant session: who, and the frames between `auth` and `bye`.
pub struct Session {
    pub tenant: usize,
    /// Client think time before connecting, uniform in `[0, 2 ms)`. The
    /// server polls for connections every 2 ms; a client that reconnected
    /// at once would lock onto that poll, and the tail percentiles would
    /// jump whenever host speed pushed sessions across a poll boundary.
    pub think: std::time::Duration,
    pub frames: Vec<Frame>,
}

pub fn tenant_name(t: usize) -> String {
    format!("tenant{t}")
}

pub fn tenant_secret(seed: u64, t: usize) -> String {
    Rng::derive(seed, 3, t as u64).word(12)
}

/// Session `i` of the seeded request stream. Reads, stats and copies
/// only touch the tenant's seed file or files this session wrote, so the
/// expected bytes never depend on which shard served earlier sessions.
pub fn session(seed: u64, i: u64) -> Session {
    let mut rng = Rng::derive(seed, 4, i);
    let tenant = (i as usize) % TENANTS;
    let think_us = rng.below(2000) as u64;
    let dir = format!("/srv/{}", tenant_name(tenant));
    let mut model: Vec<(String, String)> = vec![(SEED_FILE.to_string(), SEED_BYTES.to_string())];
    let mut kinds: Vec<bool> = (0..FRAMES_PER_SESSION).map(|k| k % 2 == 0).collect();
    rng.shuffle(&mut kinds);
    // Open with a write so later reads have a written file to hit.
    let first = kinds
        .iter()
        .position(|&w| w)
        .expect("half the frames write");
    kinds.swap(0, first);
    let mut frames = Vec::with_capacity(FRAMES_PER_SESSION);
    for write in kinds {
        let file = format!("f{}.txt", rng.below(TENANT_FILES));
        let frame = if write {
            let len = 8 + rng.below(40);
            let data = rng.word(len);
            let f = Frame {
                line: format!("write {dir}/{file} {data}"),
                expect: format!("ok {}", data.len()),
            };
            set(&mut model, &file, data);
            f
        } else {
            let (src, bytes) = model[rng.below(model.len())].clone();
            match rng.below(3) {
                0 => Frame {
                    line: format!("read {dir}/{src}"),
                    expect: format!("ok {bytes}"),
                },
                1 => Frame {
                    line: format!("stat {dir}/{src}"),
                    expect: format!("ok size={}", bytes.len()),
                },
                _ => {
                    let mut file = file;
                    while file == src {
                        file = format!("f{}.txt", rng.below(TENANT_FILES));
                    }
                    let f = Frame {
                        line: format!("copy {dir}/{src} {dir}/{file}"),
                        expect: format!("ok {}", bytes.len()),
                    };
                    set(&mut model, &file, bytes);
                    f
                }
            }
        };
        frames.push(frame);
    }
    Session {
        tenant,
        think: std::time::Duration::from_micros(think_us),
        frames,
    }
}

fn set(model: &mut Vec<(String, String)>, file: &str, bytes: String) {
    match model.iter_mut().find(|(f, _)| f == file) {
        Some(e) => e.1 = bytes,
        None => model.push((file.to_string(), bytes)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (a, b, c) = (find_tree(1), find_tree(1), find_tree(2));
        assert_eq!(a.files, b.files);
        assert_ne!(a.files, c.files);
        assert_eq!(a.files.len(), c.files.len(), "sizes are fixed across seeds");
        assert_eq!(package(7).tarball, package(7).tarball);
        assert_ne!(package(7).tarball, package(8).tarball);
        assert_eq!(session(3, 5).frames.len(), FRAMES_PER_SESSION);
    }

    #[test]
    fn find_expectations_count_pattern_bearing_c_files() {
        let t = find_tree(11);
        for (s, exp) in t.expected.iter().enumerate() {
            let files: std::collections::BTreeSet<&str> =
                exp.iter().map(|l| l.split_once(':').unwrap().0).collect();
            assert_eq!(files.len(), FIND_HITS_PER_SUBTREE, "subtree {s}");
            assert!(files.iter().all(|f| f.ends_with(".c")));
        }
    }

    #[test]
    fn sessions_are_half_writes_and_never_write_the_seed() {
        for i in 0..50 {
            let s = session(9, i);
            let writes = s
                .frames
                .iter()
                .filter(|f| f.line.starts_with("write "))
                .count();
            assert_eq!(writes, FRAMES_PER_SESSION / 2);
            assert!(s.frames[0].line.starts_with("write "));
            for f in &s.frames {
                let args: Vec<&str> = f.line.split(' ').collect();
                let target = match args[0] {
                    "write" => args[1],
                    "copy" => {
                        assert_ne!(args[1], args[2], "copy onto itself");
                        args[2]
                    }
                    _ => continue,
                };
                assert!(!target.ends_with(SEED_FILE), "{}", f.line);
            }
        }
    }
}
