//! Workload generators for the case studies and benchmarks (§4.1/§4.2).
//!
//! All generators are deterministic (an explicit LCG, no ambient
//! randomness) so benchmark runs are reproducible.

use shill_kernel::{Kernel, SockAddr};
use shill_vfs::{Gid, Mode, Uid};

use crate::tar::{pack, Entry};

/// Deterministic linear congruential generator.
pub struct Lcg(u64);

#[allow(clippy::should_implement_trait)]
impl Lcg {
    pub fn new(seed: u64) -> Lcg {
        Lcg(seed.max(1))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// What kind of student submission to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmissionKind {
    /// Correct solution (`sum`).
    Correct,
    /// Wrong answer (`print 0`).
    Wrong,
    /// Fails to compile.
    Broken,
    /// Tries to read another student's submission, then answers correctly.
    CheaterRead,
    /// Tries to overwrite its own grade file.
    CheaterWrite,
}

/// Generated grading workload description.
pub struct GradingWorkload {
    pub students: Vec<(String, SubmissionKind)>,
    pub test_cases: usize,
    pub submissions_dir: &'static str,
    pub tests_dir: &'static str,
    pub work_dir: &'static str,
    pub grades_dir: &'static str,
}

/// Build the grading course tree: `n` students under `/course/submissions`,
/// `tests` input/expected pairs, plus empty work and grades directories.
/// Student 0 is a read-cheater and student 1 a write-cheater when `n >= 4`.
pub fn grading_workload(k: &mut Kernel, n: usize, tests: usize) -> GradingWorkload {
    let mut students = Vec::new();
    let mut rng = Lcg::new(42);
    for i in 0..n {
        let name = format!("student{i:03}");
        let kind = if n >= 4 && i == 0 {
            SubmissionKind::CheaterRead
        } else if n >= 4 && i == 1 {
            SubmissionKind::CheaterWrite
        } else {
            match rng.below(10) {
                0 => SubmissionKind::Broken,
                1 | 2 => SubmissionKind::Wrong,
                _ => SubmissionKind::Correct,
            }
        };
        let source = match kind {
            SubmissionKind::Correct => "# solution\nsum\n".to_string(),
            SubmissionKind::Wrong => "# oops\nprint 0\n".to_string(),
            SubmissionKind::Broken => "sum\nsyntax-error\n".to_string(),
            SubmissionKind::CheaterRead => {
                // Try to read the next student's submission.
                format!(
                    "readfile /course/submissions/student{:03}/main.ml\nsum\n",
                    (n - 1).min(2)
                )
            }
            SubmissionKind::CheaterWrite => {
                format!("writefile /course/grades/{name}.grade score 999\nsum\n")
            }
        };
        k.fs.put_file(
            &format!("/course/submissions/{name}/main.ml"),
            source.as_bytes(),
            Mode(0o644),
            Uid(500 + i as u32),
            Gid(500),
        )
        .expect("submission");
        students.push((name, kind));
    }
    for t in 1..=tests {
        let nums: Vec<u64> = (0..3 + t as u64).map(|x| x * 2 + t as u64).collect();
        let sum: u64 = nums.iter().sum();
        let input = nums
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        k.fs.put_file(
            &format!("/course/tests/input{t}"),
            input.as_bytes(),
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .expect("test input");
        k.fs.put_file(
            &format!("/course/tests/expected{t}"),
            format!("{sum}\n").as_bytes(),
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .expect("test expected");
    }
    k.fs.mkdir_p("/course/work", Mode(0o777), Uid::ROOT, Gid::WHEEL)
        .expect("work");
    k.fs.mkdir_p("/course/grades", Mode(0o777), Uid::ROOT, Gid::WHEEL)
        .expect("grades");
    GradingWorkload {
        students,
        test_cases: tests,
        submissions_dir: "/course/submissions",
        tests_dir: "/course/tests",
        work_dir: "/course/work",
        grades_dir: "/course/grades",
    }
}

/// Generated source-tree statistics (the Find case study's `/usr/src`).
pub struct SourceTree {
    pub total_files: usize,
    pub c_files: usize,
    pub c_files_with_pattern: usize,
    pub root: &'static str,
}

/// Build a synthetic `/usr/src`. The paper's task visits 57,817 files and
/// greps 15,376 `.c` files; `scale` divides those targets (scale 10 →
/// ≈5.8k files). Ratios of `.c` files and of `mac_`-containing files match
/// the paper's tree. One pass over the nine top-level directories holds
/// about 1,250 files; later passes use their own top-level directories
/// (`sys1`, `lib1`, …), so every generated file is a distinct path and the
/// reported counts are the files the tree holds.
pub fn source_tree(k: &mut Kernel, scale: usize) -> SourceTree {
    let total_target = 57_817 / scale.max(1);
    let mut rng = Lcg::new(7);
    let dirs = [
        "sys", "lib", "bin", "usr.bin", "contrib", "kern", "dev", "net", "fs",
    ];
    let mut total = 0usize;
    let mut c_files = 0usize;
    let mut with_pattern = 0usize;
    let mut di = 0usize;
    'outer: loop {
        let pass = di / dirs.len();
        let d1 = match pass {
            0 => dirs[di].to_string(),
            _ => format!("{}{pass}", dirs[di % dirs.len()]),
        };
        di += 1;
        for sub in 0..12 {
            let dir = format!("/usr/src/{d1}/sub{sub:02}");
            let files_here = 8 + (rng.below(8) as usize);
            for f in 0..files_here {
                if total >= total_target {
                    break 'outer;
                }
                total += 1;
                // ≈27% of files are .c (15,376 / 57,817), mirroring the paper.
                let is_c = rng.below(1000) < 266;
                let (name, content) = if is_c {
                    c_files += 1;
                    // ≈1 in 9 .c files mention a MAC entry point.
                    let has = rng.below(9) == 0;
                    let body = if has {
                        with_pattern += 1;
                        format!(
                            "#include <sys/mac.h>\nint f{f}(void) {{\n  return mac_vnode_check_read();\n}}\n"
                        )
                    } else {
                        format!("int f{f}(void) {{ return {f}; }}\n")
                    };
                    (format!("file{f:03}.c"), body)
                } else {
                    match rng.below(3) {
                        0 => (format!("file{f:03}.h"), format!("#define F{f} {f}\n")),
                        1 => (format!("file{f:03}.S"), ".text\n".to_string()),
                        _ => (format!("Makefile.{f}"), "OBJS=\n".to_string()),
                    }
                };
                k.fs.put_file(
                    &format!("{dir}/{name}"),
                    content.as_bytes(),
                    Mode(0o644),
                    Uid::ROOT,
                    Gid::WHEEL,
                )
                .expect("source file");
            }
        }
    }
    SourceTree {
        total_files: total,
        c_files,
        c_files_with_pattern: with_pattern,
        root: "/usr/src",
    }
}

/// The address the Emacs mirror serves on.
pub fn emacs_mirror_addr() -> SockAddr {
    SockAddr::Inet {
        host: "mirror.gnu.org".into(),
        port: 80,
    }
}

/// Register the simulated GNU mirror serving an Emacs source tarball with
/// `sources` C files of `source_len` bytes each. Returns the tarball size.
pub fn emacs_mirror(k: &mut Kernel, sources: usize, source_len: usize) -> usize {
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
            data: b"GNU Emacs (simulated)\n".to_vec(),
            mode: 0o644,
        },
        Entry::File {
            path: "emacs-24/etc/emacs.1".into(),
            data: b".TH EMACS 1\n".to_vec(),
            mode: 0o644,
        },
    ];
    let mut rng = Lcg::new(99);
    for i in 0..sources {
        let mut body = format!("/* emacs source {i} */\n");
        while body.len() < source_len {
            body.push_str(&format!(
                "int sym_{i}_{} = {};\n",
                rng.below(1000),
                rng.below(100)
            ));
        }
        entries.push(Entry::File {
            path: format!("emacs-24/src/mod{i:03}.c"),
            data: body.into_bytes(),
            mode: 0o644,
        });
    }
    let tarball = pack(&entries);
    let size = tarball.len();
    k.net.register_remote(
        emacs_mirror_addr(),
        Box::new(move |req| {
            if req.starts_with(b"GET /emacs-24.tar") {
                tarball.clone()
            } else {
                b"404".to_vec()
            }
        }),
    );
    size
}

/// Apache workload: content root with one `size`-byte file plus config and
/// log locations. Returns the content path.
pub struct WebWorkload {
    pub content_root: &'static str,
    pub file_name: &'static str,
    pub config: &'static str,
    pub log: &'static str,
    pub port: u16,
}

pub fn web_workload(k: &mut Kernel, size: usize) -> WebWorkload {
    let mut rng = Lcg::new(5);
    let mut data = Vec::with_capacity(size);
    while data.len() < size {
        data.push((rng.next() & 0x7F) as u8);
    }
    k.fs.put_file(
        "/var/www/big.bin",
        &data,
        Mode(0o644),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .expect("content");
    k.fs.put_file(
        "/etc/apache/httpd.conf",
        b"DocumentRoot /var/www\nListen 8080\n",
        Mode(0o644),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .expect("conf");
    k.fs.mkdir_p("/var/log", Mode(0o755), Uid::ROOT, Gid::WHEEL)
        .expect("log dir");
    k.fs.put_file(
        "/var/log/httpd-access.log",
        b"",
        Mode(0o644),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .expect("log file");
    WebWorkload {
        content_root: "/var/www",
        file_name: "big.bin",
        config: "/etc/apache/httpd.conf",
        log: "/var/log/httpd-access.log",
        port: 8080,
    }
}

/// The photo-library workload for the quickstart (find_jpg / jpeginfo).
pub fn photo_workload(k: &mut Kernel, photos: usize) -> usize {
    let mut rng = Lcg::new(11);
    let mut jpgs = 0;
    for i in 0..photos {
        let dir = match rng.below(3) {
            0 => "/home/user/Pictures",
            1 => "/home/user/Pictures/vacation",
            _ => "/home/user/Downloads",
        };
        let (name, data): (String, Vec<u8>) = if rng.below(4) < 3 {
            jpgs += 1;
            (
                format!("img{i:03}.jpg"),
                vec![0xFF; 40 + rng.below(100) as usize],
            )
        } else {
            (format!("note{i:03}.txt"), b"text".to_vec())
        };
        k.fs.put_file(
            &format!("{dir}/{name}"),
            &data,
            Mode(0o644),
            Uid(100),
            Gid(100),
        )
        .expect("photo");
    }
    jpgs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grading_workload_shape() {
        let mut k = Kernel::new();
        let w = grading_workload(&mut k, 10, 3);
        assert_eq!(w.students.len(), 10);
        assert_eq!(w.students[0].1, SubmissionKind::CheaterRead);
        assert_eq!(w.students[1].1, SubmissionKind::CheaterWrite);
        assert!(k
            .fs
            .resolve_abs("/course/submissions/student000/main.ml")
            .is_ok());
        assert!(k.fs.resolve_abs("/course/tests/input3").is_ok());
        assert!(k.fs.resolve_abs("/course/tests/expected1").is_ok());
    }

    #[test]
    fn source_tree_matches_ratios() {
        let mut k = Kernel::new();
        let t = source_tree(&mut k, 50);
        assert!(t.total_files >= 1000, "{}", t.total_files);
        let ratio = t.c_files as f64 / t.total_files as f64;
        assert!((0.2..0.35).contains(&ratio), "c ratio {ratio}");
        assert!(t.c_files_with_pattern > 0);
        assert!(k.fs.resolve_abs("/usr/src/sys/sub00").is_ok());
    }

    /// Walk the generated tree and count the regular files it really
    /// holds: the reported totals must be exactly those.
    #[test]
    fn source_tree_reports_the_files_it_holds() {
        for scale in [40, 10] {
            let mut k = Kernel::new();
            let t = source_tree(&mut k, scale);
            assert_eq!(t.total_files, 57_817 / scale);
            let (mut files, mut c_files) = (0, 0);
            let mut dirs = vec![k.fs.resolve_abs(t.root).unwrap()];
            while let Some(dir) = dirs.pop() {
                for name in k.fs.readdir(dir).unwrap() {
                    let node = k.fs.lookup(dir, &name).unwrap();
                    match k.fs.node(node).unwrap().file_type() {
                        shill_vfs::FileType::Directory => dirs.push(node),
                        _ => {
                            files += 1;
                            if name.ends_with(".c") {
                                c_files += 1;
                            }
                        }
                    }
                }
            }
            assert_eq!(files, t.total_files, "scale {scale}");
            assert_eq!(c_files, t.c_files, "scale {scale}");
        }
    }

    #[test]
    fn emacs_mirror_serves_tarball() {
        let mut k = Kernel::new();
        let size = emacs_mirror(&mut k, 5, 256);
        assert!(size > 1000);
        let addr = emacs_mirror_addr();
        // Exercise via socket syscalls.
        use shill_kernel::SockDomain;
        let s = k.net.socket(SockDomain::Inet);
        k.net.connect(s, addr).unwrap();
        k.net.send(s, b"GET /emacs-24.tar").unwrap();
        let mut got = Vec::new();
        loop {
            let chunk = k.net.recv(s, 65536).unwrap();
            if chunk.is_empty() {
                break;
            }
            got.extend(chunk);
        }
        assert_eq!(got.len(), size);
        assert!(crate::tar::unpack(&got).is_some());
    }

    #[test]
    fn deterministic_generators() {
        let mut k1 = Kernel::new();
        let mut k2 = Kernel::new();
        let a = source_tree(&mut k1, 100);
        let b = source_tree(&mut k2, 100);
        assert_eq!(a.total_files, b.total_files);
        assert_eq!(a.c_files, b.c_files);
        assert_eq!(a.c_files_with_pattern, b.c_files_with_pattern);
    }
}
