//! Property and havoc tests for the hand-rolled JSON codec
//! (`sz_harness::Json`), the parser behind every trace reader and every
//! sz-serve request line.
//!
//! - **Round trip.** `parse(v.to_string()) == v` for seeded values whose
//!   strings mix long ASCII runs with 2-, 3- and 4-byte UTF-8 next to
//!   every character that needs an escape. Hand-escaped text (short
//!   escapes, `\uXXXX`, surrogate pairs) decodes to the original string.
//! - **Havoc.** Byte flips, truncations, duplicated brackets and
//!   inserted control bytes applied to real trace and request lines
//!   never panic any parser, and `Json::parse_fields` agrees with
//!   `Json::parse`: the same error, or the full parse cut down to the
//!   named keys.
//! - **Trace bytes.** `TraceSink::run_record` writes its text directly,
//!   not through a `Json` tree. A reference renderer kept here (the
//!   tree, escaper and number rules the writer replaced) pins its bytes
//!   on edge-case records, and pins `Json`'s `Display` on every value
//!   the generator makes.

use sz_harness::experiments::table1;
use sz_harness::{ExperimentOptions, Json, TraceSink};
use sz_machine::{PerfCounters, PeriodSnapshot, SimTime};
use sz_rng::{Rng, SplitMix64};
use sz_serve::Request;
use sz_vm::RunReport;

/// Characters the string generator splices between ASCII runs: every
/// one that needs an escape, plus multi-byte UTF-8 of each width.
const SPECIALS: [char; 17] = [
    '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}', '/', 'é', 'ß', '€', '中',
    '\u{2028}', '😀', '𝄞',
];

/// Key lists for `parse_fields`: the sentinel's, one naming a request's
/// nested fields, and none.
const KEY_SETS: [&[&str]; 3] = [
    &[
        "type",
        "schema",
        "benchmark",
        "variant",
        "run",
        "seconds",
        "counters",
    ],
    &["type", "adaptive", "benchmarks"],
    &[],
];

fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn gen_string(rng: &mut SplitMix64) -> String {
    let mut s = String::new();
    for _ in 0..rng.below(6) {
        match rng.below(3) {
            0 => {
                let len = if rng.below(4) == 0 { 200 } else { 8 };
                for _ in 0..rng.below(len) {
                    s.push(char::from(b' ' + rng.below(95) as u8));
                }
            }
            _ => s.push(pick(rng, &SPECIALS)),
        }
    }
    s
}

/// Floats whose `Display` text parses back as a float: negative,
/// fractional, or beyond `u64::MAX` (a non-negative integral float
/// below 2^64 prints as an integer and parses as `U64`).
fn gen_float(rng: &mut SplitMix64) -> f64 {
    match rng.below(6) {
        0 => -0.0,
        1 => 18_446_744_073_709_551_616.0,
        2 => (1.0 + rng.next_f64()) * 10f64.powi(20 + rng.below(280) as i32),
        3 => -(rng.below(1000) as f64),
        4 => (0.5 + rng.next_f64()) * 1e-300,
        _ => (rng.below(1_000_000) as f64 + 0.5) / 10f64.powi(1 + rng.below(19) as i32),
    }
}

fn gen_value(rng: &mut SplitMix64, depth: usize) -> Json {
    let scalar_only = depth >= 4;
    match rng.below(if scalar_only { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => {
            let any = rng.next_u64();
            Json::U64(pick(rng, &[0, 1, 9, 10, u64::MAX - 1, u64::MAX, any]))
        }
        3 => Json::F64(gen_float(rng)),
        4 => Json::Str(gen_string(rng)),
        5 => Json::Arr(
            (0..rng.below(5))
                .map(|_| gen_value(rng, depth + 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(5))
                .map(|_| {
                    let key = if rng.below(2) == 0 {
                        pick(rng, KEY_SETS[0]).to_string()
                    } else {
                        gen_string(rng)
                    };
                    (key, gen_value(rng, depth + 1))
                })
                .collect(),
        ),
    }
}

/// `v` cut down to `keys`, the way `Json::parse_fields` defines it.
fn restrict(v: Json, keys: &[&str]) -> Json {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| keys.contains(&k.as_str()))
                .collect(),
        ),
        other => other,
    }
}

#[test]
fn generated_values_round_trip() {
    let mut rng = SplitMix64::new(0x150C_0DEC);
    for case in 0..3000 {
        let v = gen_value(&mut rng, 0);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).as_ref(), Ok(&v), "case {case}: {text}");
        for keys in KEY_SETS {
            assert_eq!(
                Json::parse_fields(&text, keys),
                Ok(restrict(v.clone(), keys)),
                "case {case}, keys {keys:?}: {text}"
            );
        }
    }
}

#[test]
fn number_shapes_parse_exactly() {
    for (text, want) in [
        ("0", Json::U64(0)),
        ("18446744073709551615", Json::U64(u64::MAX)),
        (
            "18446744073709551616",
            Json::F64(18_446_744_073_709_551_616.0),
        ),
        ("-0", Json::F64(-0.0)),
        ("1e3", Json::F64(1000.0)),
        ("1.5", Json::F64(1.5)),
        ("007", Json::U64(7)),
        ("-12", Json::F64(-12.0)),
    ] {
        let got = Json::parse(text).unwrap();
        assert_eq!(got, want, "{text}");
        if let (Json::F64(a), Json::F64(b)) = (&got, &want) {
            assert_eq!(a.to_bits(), b.to_bits(), "{text}: sign and bits");
        }
    }
    for bad in ["-", "1e", "--1", "1.2.3", "+1"] {
        let err = Json::parse(bad).unwrap_err();
        assert_eq!(
            Json::parse_fields(bad, &["a"]).unwrap_err(),
            err,
            "{bad}: both parsers report the same error"
        );
    }
}

/// Escapes `s` by hand, choosing per character between the raw
/// character (where JSON allows it), its short escape, `\uXXXX`, and
/// for astral characters a UTF-16 surrogate pair.
fn hand_escape(s: &str, rng: &mut SplitMix64) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            _ => None,
        };
        let raw_ok = !matches!(c, '"' | '\\') && c >= ' ';
        match (rng.below(3), short) {
            (0, _) if raw_ok => out.push(c),
            (1, Some(short)) => out.push_str(short),
            _ => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
        }
    }
    out.push('"');
    out
}

#[test]
fn hand_escaped_strings_decode_to_the_original() {
    let mut rng = SplitMix64::new(0x0E5C_A9E5);
    for case in 0..3000 {
        let s = gen_string(&mut rng);
        let text = hand_escape(&s, &mut rng);
        assert_eq!(
            Json::parse(&text),
            Ok(Json::Str(s.clone())),
            "case {case}: {text}"
        );
    }
    assert_eq!(
        Json::parse(r#""😀 and 𝄞""#),
        Ok(Json::Str("😀 and 𝄞".to_string()))
    );
}

/// Real lines: a traced Table 1 run (run records with per-period
/// counters, then summaries) and sz-serve request lines.
fn corpus() -> Vec<String> {
    let mut opts = ExperimentOptions::quick();
    opts.benchmarks = Some(vec!["bzip2".into()]);
    opts.runs = 2;
    opts.threads = 1;
    let (sink, buffer) = TraceSink::in_memory();
    table1::run_traced(&opts, Some(&sink));
    let mut lines = buffer.lines();
    assert!(lines.iter().any(|l| l.contains("\"periods\":[{")));
    lines.extend(
        [
            r#"{"type":"run","experiment":"table1","benchmarks":["bzip2","mcf"],"scale":"tiny","runs":6,"seed_base":1592262656,"trace":true}"#,
            r#"{"type":"run","experiment":"evaluate","benchmarks":["gobmk"],"runs":30,"before":"O1","after":"O2","adaptive":{"half_width":0.05,"batch":5,"min_runs":5,"max_runs":30}}"#,
            r#"{"type":"status","job":7}"#,
            r#"{"type":"stats"}"#,
            r#"{"schema":1}"#,
        ]
        .map(str::to_string),
    );
    lines
}

fn havoc(line: &str, rng: &mut SplitMix64) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        match rng.below(5) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            1 => bytes.truncate(at),
            2 => {
                // Duplicate a bracket, sometimes enough times to pass
                // the nesting limit.
                if let Some(i) = bytes.iter().skip(at).position(|b| b"[]{}".contains(b)) {
                    let copies = if rng.below(4) == 0 { 200 } else { 1 };
                    let bracket = bytes[at + i];
                    bytes.splice(at + i..at + i, std::iter::repeat_n(bracket, copies));
                }
            }
            3 => bytes.insert(at, rng.below(0x20) as u8),
            _ => bytes.insert(at, pick(rng, b"\"\\:,")),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn havoc_never_panics_and_field_parse_agrees() {
    let corpus = corpus();
    let mut rng = SplitMix64::new(0x4A_0C);
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..6000 {
        let line = havoc(&corpus[case % corpus.len()], &mut rng);
        let full = Json::parse(&line);
        for keys in KEY_SETS {
            match (&full, Json::parse_fields(&line, keys)) {
                (Ok(v), Ok(part)) => assert_eq!(part, restrict(v.clone(), keys), "{line}"),
                (Err(a), Err(b)) => assert_eq!(*a, b, "{line}"),
                (a, b) => panic!("parse gave {a:?} but parse_fields gave {b:?}: {line}"),
            }
        }
        if full.is_ok() {
            accepted += 1;
        } else {
            rejected += 1;
        }
        let _ = sz_sentinel::parse_line(&line, case as u64 + 1);
        let _ = Request::parse(&line);
    }
    // The mutations must exercise both outcomes.
    assert!(accepted > 200 && rejected > 200, "{accepted} / {rejected}");
}

/// The character-by-character string escaper `Json`'s `Display` used
/// before it wrote unescaped runs whole.
fn reference_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A renderer independent of `Json`'s `Display`, with the same rules:
/// non-finite floats print `null`, keys escape like strings.
fn reference_render(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::U64(n) => n.to_string(),
        Json::F64(x) if x.is_finite() => x.to_string(),
        Json::F64(_) => "null".to_string(),
        Json::Str(s) => reference_escape(s),
        Json::Arr(items) => {
            let items: Vec<String> = items.iter().map(reference_render).collect();
            format!("[{}]", items.join(","))
        }
        Json::Obj(fields) => {
            let fields: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}:{}", reference_escape(k), reference_render(v)))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
    }
}

fn counters_tree(c: &PerfCounters) -> Json {
    Json::obj([
        ("instructions", c.instructions.into()),
        ("cycles", c.cycles.into()),
        ("l1i_misses", c.l1i_misses.into()),
        ("l1d_misses", c.l1d_misses.into()),
        ("l2_misses", c.l2_misses.into()),
        ("l3_misses", c.l3_misses.into()),
        ("itlb_misses", c.itlb_misses.into()),
        ("dtlb_misses", c.dtlb_misses.into()),
        ("branches", c.branches.into()),
        ("branch_mispredicts", c.branch_mispredicts.into()),
    ])
}

/// A `run` record as a `Json` tree, in the field order trace readers
/// have always seen.
fn run_record_tree(names: [&str; 3], run: usize, report: &RunReport) -> Json {
    let periods = report
        .periods
        .iter()
        .map(|p| {
            Json::obj([
                ("index", p.index.into()),
                ("start_cycles", p.start_cycles.into()),
                ("end_cycles", p.end_cycles.into()),
                ("counters", counters_tree(&p.counters)),
            ])
        })
        .collect();
    Json::obj([
        ("type", "run".into()),
        ("experiment", names[0].into()),
        ("benchmark", names[1].into()),
        ("variant", names[2].into()),
        ("run", run.into()),
        ("engine", report.engine.as_str().into()),
        ("seconds", report.seconds().into()),
        ("counters", counters_tree(&report.counters)),
        ("periods", Json::Arr(periods)),
    ])
}

fn report(nanos: f64, counters: PerfCounters, periods: usize, engine: &str) -> RunReport {
    RunReport {
        cycles: counters.cycles,
        instructions: counters.instructions,
        time: SimTime::from_nanos(nanos),
        counters,
        periods: (0..periods)
            .map(|i| PeriodSnapshot {
                index: i as u32,
                start_cycles: 100 * i as u64,
                end_cycles: 100 * i as u64 + 100,
                counters,
            })
            .collect(),
        return_value: Some(7),
        engine: engine.to_string(),
    }
}

#[test]
fn run_records_match_the_reference_tree_byte_for_byte() {
    // Distinct values, so a field printed in the wrong place shows.
    let small = PerfCounters {
        instructions: 10,
        cycles: 40,
        l1i_misses: 1,
        l1d_misses: 2,
        l2_misses: 3,
        l3_misses: 4,
        itlb_misses: 5,
        dtlb_misses: 6,
        branches: 7,
        branch_mispredicts: 8,
    };
    let max = PerfCounters {
        instructions: u64::MAX,
        cycles: u64::MAX,
        l1i_misses: u64::MAX,
        l1d_misses: u64::MAX,
        l2_misses: u64::MAX,
        l3_misses: u64::MAX,
        itlb_misses: u64::MAX,
        dtlb_misses: u64::MAX,
        branches: u64::MAX,
        branch_mispredicts: u64::MAX,
    };
    let subnormal: f64 = 1e-300;
    assert!(subnormal / 1e9 > 0.0 && !(subnormal / 1e9).is_normal());
    let cases = [
        (
            ["table1", "mcf", "rerandomized"],
            report(12.5, small, 0, "stabilizer"),
        ),
        (
            ["fig7", "gcc", "O2"],
            report(f64::NAN, small, 3, "stabilizer"),
        ),
        (
            ["fig7", "gcc", "O3"],
            report(f64::INFINITY, max, 2, "linked"),
        ),
        (
            ["fig7", "gcc", "O1"],
            report(f64::NEG_INFINITY, small, 1, "simple"),
        ),
        (["fig6", "lbm", "code"], report(-0.0, max, 30, "stabilizer")),
        (
            ["fig6", "lbm", "heap"],
            report(subnormal, small, 1, "stabilizer"),
        ),
        (
            [
                "quote\" back\\slash",
                "line\nbreak \u{1} del\u{7f}",
                "é ß € 中 😀 𝄞",
            ],
            report(3.0e9, max, 2, "tab\there\r\u{1f}"),
        ),
    ];
    for (run, (names, report)) in cases.iter().enumerate() {
        let tree = run_record_tree(*names, run, report);
        let expected = format!("{}\n", reference_render(&tree));
        assert_eq!(tree.to_string(), reference_render(&tree), "case {run}");
        let (sink, buffer) = TraceSink::in_memory();
        sink.run_record(names[0], names[1], names[2], run, report);
        assert_eq!(buffer.contents(), expected, "case {run}");
        assert_eq!(Json::parse(expected.trim_end()).map(|_| ()), Ok(()));

        let (sink, buffer) = TraceSink::in_memory();
        sink.record(&tree);
        assert_eq!(buffer.contents(), expected, "record, case {run}");
    }
    let (sink, buffer) = TraceSink::in_memory();
    let fields = vec![("name\u{1}\"", Json::F64(-0.0)), ("n", Json::U64(u64::MAX))];
    sink.summary_record("evaluate", fields.clone());
    let mut obj = vec![
        ("type".to_string(), Json::from("summary")),
        ("experiment".to_string(), Json::from("evaluate")),
    ];
    obj.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    assert_eq!(buffer.contents(), format!("{}\n", Json::Obj(obj)));
}

#[test]
fn display_matches_the_reference_renderer() {
    let mut rng = SplitMix64::new(0x0E5C_0DE5);
    for case in 0..3000 {
        let s = gen_string(&mut rng);
        assert_eq!(
            Json::Str(s.clone()).to_string(),
            reference_escape(&s),
            "case {case}"
        );
        let v = gen_value(&mut rng, 0);
        assert_eq!(v.to_string(), reference_render(&v), "case {case}");
    }
}
