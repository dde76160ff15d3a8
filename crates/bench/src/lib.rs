//! Shared measurement utilities for the SHILL benchmark harness.
//!
//! The paper runs each benchmark 50 times and reports mean time with a 95%
//! confidence interval (§4.2). We do the same with a configurable repeat
//! count (`SHILL_BENCH_RUNS`, default 5 — the simulation is deterministic,
//! so variance is scheduler noise only).

use std::time::{Duration, Instant};

/// Repeat count for macro benchmarks.
pub fn runs() -> usize {
    std::env::var("SHILL_BENCH_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5)
}

/// Scale divisor for the Find source tree (paper: 57,817 files at scale 1).
pub fn find_scale() -> usize {
    std::env::var("SHILL_BENCH_FIND_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40)
}

/// Students in the grading benchmark.
pub fn grading_students() -> usize {
    std::env::var("SHILL_BENCH_STUDENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12)
}

/// Requests in the Apache benchmark (paper: 5000 × 50 MB).
pub fn apache_requests() -> usize {
    std::env::var("SHILL_BENCH_REQUESTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(120)
}

/// File size for the Apache benchmark.
pub fn apache_file_size() -> usize {
    std::env::var("SHILL_BENCH_FILE_SIZE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(512 * 1024)
}

/// Mean and 95% confidence half-width of a sample.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    pub mean: Duration,
    pub ci95: Duration,
    pub n: usize,
}

impl Stats {
    pub fn of(samples: &[Duration]) -> Stats {
        let n = samples.len().max(1);
        let mean_ns = samples.iter().map(|d| d.as_nanos()).sum::<u128>() / n as u128;
        let var = samples
            .iter()
            .map(|d| {
                let x = d.as_nanos() as f64 - mean_ns as f64;
                x * x
            })
            .sum::<f64>()
            / (n.saturating_sub(1).max(1)) as f64;
        let ci = 1.96 * (var / n as f64).sqrt();
        Stats {
            mean: Duration::from_nanos(mean_ns as u64),
            ci95: Duration::from_nanos(ci as u64),
            n,
        }
    }

    /// Format as `12.34ms ±0.56`.
    pub fn fmt_ms(&self) -> String {
        format!(
            "{:9.3}ms ±{:6.3}",
            self.mean.as_secs_f64() * 1e3,
            self.ci95.as_secs_f64() * 1e3
        )
    }

    pub fn fmt_us(&self) -> String {
        format!(
            "{:9.3}µs ±{:6.3}",
            self.mean.as_secs_f64() * 1e6,
            self.ci95.as_secs_f64() * 1e6
        )
    }
}

/// Time `f` `n` times, returning per-run durations. `f` is responsible for
/// its own setup (it is timed whole, like the paper's command invocations).
pub fn sample<F: FnMut() -> Duration>(n: usize, mut f: F) -> Vec<Duration> {
    (0..n).map(|_| f()).collect()
}

/// Time a closure once.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t0 = Instant::now();
    let v = f();
    (t0.elapsed(), v)
}

/// Ratio between two means, as `×` string; `—` when baseline is ~zero.
pub fn ratio(vs_baseline: &Stats, baseline: &Stats) -> String {
    let b = baseline.mean.as_secs_f64();
    if b <= 0.0 {
        return "—".into();
    }
    format!("{:5.2}×", vs_baseline.mean.as_secs_f64() / b)
}

/// Cores this process may run on (what every baseline records as `cores`).
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One value of a [`Record`] field.
#[derive(Debug, Clone)]
enum Field {
    Int(u64),
    Float(f64),
    Str(String),
    Rec(Record),
}

/// A machine-readable bench result: a JSON object whose keys keep their
/// insertion order. Fields are integers, floats (rendered with three
/// decimals; non-finite values as `null`), strings, and nested records.
/// A record that holds no nested record renders on one line.
#[derive(Debug, Clone, Default)]
pub struct Record {
    fields: Vec<(String, Field)>,
}

impl Record {
    pub fn new() -> Record {
        Record::default()
    }

    pub fn int(self, key: &str, v: u64) -> Record {
        self.with(key, Field::Int(v))
    }

    pub fn float(self, key: &str, v: f64) -> Record {
        self.with(key, Field::Float(v))
    }

    pub fn str(self, key: &str, v: impl Into<String>) -> Record {
        self.with(key, Field::Str(v.into()))
    }

    pub fn rec(self, key: &str, v: Record) -> Record {
        self.with(key, Field::Rec(v))
    }

    fn with(mut self, key: &str, v: Field) -> Record {
        self.fields.push((key.to_string(), v));
        self
    }

    /// The committed-baseline document: `cores` first, then the fields in
    /// insertion order (so a record leaves its top-level `cores` to this).
    pub fn to_json(&self) -> String {
        let mut doc = Record::new().int("cores", cores() as u64);
        doc.fields.extend(self.fields.iter().cloned());
        let mut out = String::new();
        doc.render(&mut out, 0);
        out.push('\n');
        out
    }

    fn render(&self, out: &mut String, indent: usize) {
        let inline = indent > 0 && self.fields.iter().all(|(_, v)| !matches!(v, Field::Rec(_)));
        let (pad, end) = (" ".repeat(indent + 2), " ".repeat(indent));
        let (open, sep, close) = if inline {
            ("{".to_string(), ", ".to_string(), "}".to_string())
        } else {
            (
                format!("{{\n{pad}"),
                format!(",\n{pad}"),
                format!("\n{end}}}"),
            )
        };
        out.push_str(&open);
        for (i, (key, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(&sep);
            }
            push_str_lit(out, key);
            out.push_str(": ");
            match v {
                Field::Int(n) => out.push_str(&n.to_string()),
                Field::Float(x) if x.is_finite() => out.push_str(&format!("{x:.3}")),
                Field::Float(_) => out.push_str("null"),
                Field::Str(s) => push_str_lit(out, s),
                Field::Rec(r) => r.render(out, indent + 2),
            }
        }
        out.push_str(&close);
    }

    /// Write this record as `<dir>/BENCH_<group>.json` when
    /// `SHILL_BENCH_OUT=<dir>` is set; a relative `<dir>` resolves against
    /// the repository root, whatever the bench's working directory.
    pub fn write_baseline(&self, group: &str) {
        let Ok(dir) = std::env::var("SHILL_BENCH_OUT") else {
            return;
        };
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let dir = std::fs::canonicalize(root.join(&dir))
            .unwrap_or_else(|e| panic!("SHILL_BENCH_OUT={dir}: {e}"));
        let path = dir.join(format!("BENCH_{group}.json"));
        std::fs::write(&path, self.to_json())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("   baseline written to {}", path.display());
    }
}

/// Append `s` as a JSON string literal.
fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_constant_sample() {
        let s = Stats::of(&[Duration::from_millis(10); 8]);
        assert_eq!(s.mean, Duration::from_millis(10));
        assert_eq!(s.ci95, Duration::ZERO);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn stats_ci_grows_with_variance() {
        let tight = Stats::of(&[Duration::from_millis(10), Duration::from_millis(10)]);
        let wide = Stats::of(&[Duration::from_millis(5), Duration::from_millis(15)]);
        assert!(wide.ci95 > tight.ci95);
        assert_eq!(wide.mean, Duration::from_millis(10));
    }

    #[test]
    fn ratio_formatting() {
        let a = Stats::of(&[Duration::from_millis(20)]);
        let b = Stats::of(&[Duration::from_millis(10)]);
        assert_eq!(ratio(&a, &b), " 2.00×");
    }

    /// Parsed JSON, just enough to check what [`Record`] emits.
    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Num(f64),
        Str(String),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            let Json::Obj(fields) = self else {
                panic!("not an object: {self:?}")
            };
            &fields.iter().find(|(k, _)| k == key).expect(key).1
        }

        fn keys(&self) -> Vec<&str> {
            let Json::Obj(fields) = self else {
                panic!("not an object: {self:?}")
            };
            fields.iter().map(|(k, _)| k.as_str()).collect()
        }
    }

    /// A strict parser for the subset [`Record`] writes (objects, strings,
    /// numbers, `null`); anything else, or trailing input, panics.
    fn parse(text: &str) -> Json {
        let mut p = text.trim_end().chars().peekable();
        let v = parse_value(&mut p);
        assert!(p.next().is_none(), "trailing input after the document");
        v
    }

    type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

    fn skip_ws(p: &mut Chars) {
        while p.next_if(|c| c.is_ascii_whitespace()).is_some() {}
    }

    fn expect(p: &mut Chars, want: char) {
        skip_ws(p);
        assert_eq!(p.next(), Some(want));
    }

    fn parse_value(p: &mut Chars) -> Json {
        skip_ws(p);
        match p.peek().copied().expect("value") {
            '{' => {
                p.next();
                let mut fields = Vec::new();
                skip_ws(p);
                if p.next_if_eq(&'}').is_some() {
                    return Json::Obj(fields);
                }
                loop {
                    skip_ws(p);
                    let Json::Str(key) = parse_value(p) else {
                        panic!("object key must be a string")
                    };
                    expect(p, ':');
                    fields.push((key, parse_value(p)));
                    skip_ws(p);
                    match p.next() {
                        Some(',') => continue,
                        Some('}') => return Json::Obj(fields),
                        c => panic!("expected , or }} got {c:?}"),
                    }
                }
            }
            '"' => {
                p.next();
                let mut s = String::new();
                loop {
                    match p.next().expect("unterminated string") {
                        '"' => return Json::Str(s),
                        '\\' => match p.next().expect("escape") {
                            '"' => s.push('"'),
                            '\\' => s.push('\\'),
                            'n' => s.push('\n'),
                            'u' => {
                                let hex: String = p.by_ref().take(4).collect();
                                let code = u32::from_str_radix(&hex, 16).expect("hex");
                                s.push(char::from_u32(code).expect("scalar"));
                            }
                            c => panic!("unexpected escape \\{c}"),
                        },
                        c if (c as u32) < 0x20 => panic!("raw control character in string"),
                        c => s.push(c),
                    }
                }
            }
            'n' => {
                let word: String = p.by_ref().take(4).collect();
                assert_eq!(word, "null");
                Json::Null
            }
            _ => {
                let mut num = String::new();
                while let Some(c) = p.next_if(|c| c.is_ascii_digit() || "+-.eE".contains(*c)) {
                    num.push(c);
                }
                assert!(
                    num.starts_with(|c: char| c == '-' || c.is_ascii_digit()),
                    "bad number {num:?}"
                );
                Json::Num(num.parse().expect("number"))
            }
        }
    }

    #[test]
    fn record_keys_keep_insertion_order() {
        let r = Record::new()
            .int("zulu", 1)
            .float("alpha", 2.0)
            .str("mike", "m")
            .rec("bravo", Record::new().int("y", 1).int("x", 2));
        let doc = parse(&r.to_json());
        assert_eq!(doc.keys(), ["cores", "zulu", "alpha", "mike", "bravo"]);
        assert_eq!(doc.get("bravo").keys(), ["y", "x"]);
    }

    #[test]
    fn record_escapes_quotes_and_backslashes() {
        let tricky = "say \"hi\" to C:\\dir\\ \\\" then\nnext\ttab";
        let doc = parse(&Record::new().str("w\"k\\", tricky).to_json());
        assert_eq!(doc.keys(), ["cores", "w\"k\\"]);
        assert_eq!(doc.get("w\"k\\"), &Json::Str(tricky.to_string()));
    }

    #[test]
    fn record_numbers_and_nested_records_parse() {
        let r = Record::new()
            .int("zero", 0)
            .int("max", u64::MAX)
            .float("ratio", 1.5)
            .float("neg", -0.25)
            .float("nan", f64::NAN)
            .rec(
                "outer",
                Record::new()
                    .int("n", 7)
                    .rec("inner", Record::new().float("x", 2664.2))
                    .rec("empty", Record::new()),
            );
        let text = r.to_json();
        let doc = parse(&text);
        assert_eq!(doc.get("zero"), &Json::Num(0.0));
        assert_eq!(doc.get("max"), &Json::Num(u64::MAX as f64));
        assert!(text.contains("\"max\": 18446744073709551615"));
        assert_eq!(doc.get("ratio"), &Json::Num(1.5));
        assert_eq!(doc.get("neg"), &Json::Num(-0.25));
        assert_eq!(doc.get("nan"), &Json::Null);
        let outer = doc.get("outer");
        assert_eq!(outer.get("n"), &Json::Num(7.0));
        assert_eq!(outer.get("inner").get("x"), &Json::Num(2664.2));
        assert_eq!(outer.get("empty"), &Json::Obj(Vec::new()));
        // A record of scalars renders on one line.
        assert!(text.contains("\"inner\": {\"x\": 2664.200}"));
    }

    #[test]
    fn record_always_carries_cores() {
        let cores = Json::Num(cores() as f64);
        let empty = parse(&Record::new().to_json());
        assert_eq!(empty.keys(), ["cores"]);
        assert_eq!(empty.get("cores"), &cores);
        assert!(super::cores() >= 1);
        // A nested `cores` (the `batch_pool` half of `BENCH_sched.json`)
        // is the record's own and stays where it was put.
        let doc = parse(
            &Record::new()
                .str("workload", "w")
                .rec("part", Record::new().int("cores", 3))
                .to_json(),
        );
        assert_eq!(doc.keys(), ["cores", "workload", "part"]);
        assert_eq!(doc.get("cores"), &cores);
        assert_eq!(doc.get("part").get("cores"), &Json::Num(3.0));
    }
}
