//! Plain-text table rendering and JSONL trace emission for experiment
//! output.
//!
//! [`TraceSink`] captures the raw observations behind every table and
//! figure: one JSON object per line, either a `run` record (one
//! benchmark execution with its hardware counters and
//! per-randomization-period snapshots) or a `summary` record (one
//! experiment-level result). The JSON is hand-rolled — the tier-1
//! build resolves offline with an empty registry cache, so no serde.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use sz_machine::PerfCounters;
use sz_vm::RunReport;

/// Renders an aligned text table with a header row and a separator.
///
/// # Examples
///
/// ```
/// use sz_harness::report::render_table;
///
/// let t = render_table(
///     &["benchmark", "p"],
///     &[vec!["mcf".to_string(), "0.42".to_string()]],
/// );
/// assert!(t.contains("benchmark"));
/// assert!(t.contains("mcf"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in headers.iter().enumerate() {
        line.push_str(&format!("{:<width$}  ", h, width = widths[i]));
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate().take(cols) {
            line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Formats a p-value the way the paper's Table 1 does (three decimal
/// places, with very small values pinned to "<0.001").
pub fn fmt_p(p: f64) -> String {
    if p < 0.001 {
        "<0.001".to_string()
    } else {
        format!("{p:.3}")
    }
}

/// Marks a p-value that rejects the null at α = 0.05 with an asterisk
/// (boldface in the paper).
pub fn fmt_p_marked(p: f64) -> String {
    let s = fmt_p(p);
    if p < 0.05 {
        format!("{s}*")
    } else {
        s
    }
}

/// Flattens a [`sz_stats::VerdictReport`] into the flat wire fields
/// shared by the service summaries, `szctl`'s renderer, and the CI
/// gate: the four-way verdict plus everything needed to audit it
/// (both CI bounds, the band, n per arm, and the bootstrap seed and
/// resample count that make the numbers reproducible).
pub fn verdict_json(r: &sz_stats::VerdictReport) -> Json {
    Json::obj([
        ("verdict", r.verdict.as_str().into()),
        ("effect_ratio", r.effect.ratio.into()),
        ("effect_lo", r.effect.lo.into()),
        ("effect_hi", r.effect.hi.into()),
        ("confidence", r.effect.confidence.into()),
        ("resamples", r.effect.resamples.into()),
        ("boot_seed", r.effect.seed.into()),
        ("band", r.band.into()),
        ("welch_lo", r.welch.lo.into()),
        ("welch_hi", r.welch.hi.into()),
        ("n_a", r.n_a.into()),
        ("n_b", r.n_b.into()),
    ])
}

/// One-line human rendering of a [`sz_stats::VerdictReport`].
pub fn fmt_verdict(r: &sz_stats::VerdictReport) -> String {
    format!(
        "{} (ratio {:.4} in [{:.4}, {:.4}] @{:.0}%, band ±{:.0}%, n {}+{})",
        r.verdict,
        r.effect.ratio,
        r.effect.lo,
        r.effect.hi,
        100.0 * r.effect.confidence,
        100.0 * r.band,
        r.n_a,
        r.n_b,
    )
}

/// A JSON value, sufficient for trace records.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also used for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counters, indices, seeds).
    U64(u64),
    /// A floating-point number; non-finite values serialize as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Parses one JSON value from `input` (the whole string must be
    /// consumed, modulo surrounding whitespace). Non-negative integers
    /// without a fraction or exponent become [`Json::U64`]; every other
    /// number becomes [`Json::F64`], so values produced by
    /// [`Json`]'s `Display` round-trip exactly. Arrays and objects may
    /// nest at most [`MAX_DEPTH`] deep.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] with the byte offset of the first
    /// malformed construct.
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        JsonParser::new(input).document(None)
    }

    /// [`Json::parse`], keeping only the top-level object's fields
    /// named in `keys` (in input order, duplicates included). Every
    /// other value is validated exactly as [`Json::parse`] would, so
    /// both accept the same inputs and fail with the same error, but
    /// the dropped values are never built. A top-level value that is
    /// not an object is returned whole.
    ///
    /// # Errors
    ///
    /// As [`Json::parse`].
    ///
    /// # Examples
    ///
    /// ```
    /// use sz_harness::Json;
    ///
    /// let v = Json::parse_fields(r#"{"a":1,"big":[[2,3]],"b":"x"}"#, &["b", "a"]).unwrap();
    /// assert_eq!(v.to_string(), r#"{"a":1,"b":"x"}"#);
    /// ```
    pub fn parse_fields(input: &str, keys: &[&str]) -> Result<Json, JsonParseError> {
        JsonParser::new(input).document(Some(keys))
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer ([`Json::U64`], or an
    /// [`Json::F64`] that is exactly a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as a float (accepts both number shapes).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Error from [`Json::parse`]: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the malformed construct.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Deepest nesting of arrays and objects the parser accepts; one more
/// opening bracket is a [`JsonParseError`] at that bracket. Records in
/// this repository nest at most 4 deep. The bound keeps the recursive
/// parser's stack use small on hostile input.
pub const MAX_DEPTH: usize = 128;

/// One recursive walker serves both [`Json::parse`] and
/// [`Json::parse_fields`]: `value` builds what it reads, and `skip`
/// checks a value exactly as `value` would, with the same errors at the
/// same offsets, but builds nothing.
struct JsonParser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn new(input: &'a str) -> JsonParser<'a> {
        JsonParser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn document(&mut self, fields: Option<&[&str]>) -> Result<Json, JsonParseError> {
        self.skip_ws();
        let value = self.value(fields)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing characters after JSON value"));
        }
        Ok(value)
    }

    fn error(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8, what: &str) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(what))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> Result<(), JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error("invalid literal"))
        }
    }

    /// Parses one value. `fields`, when given, cuts an object at this
    /// level down to the named keys; the other values are skipped.
    fn value(&mut self, fields: Option<&[&str]>) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.object(fields),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.eat_keyword("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat_keyword("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Checks one value as [`JsonParser::value`] would, building
    /// nothing.
    fn skip(&mut self) -> Result<(), JsonParseError> {
        match self.peek() {
            Some(b'{') => {
                if self.open(b'}')? {
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.skip_string()?;
                    self.colon()?;
                    self.skip()?;
                    if self.next_member(b'}', "expected ',' or '}' in object")? {
                        return Ok(());
                    }
                }
            }
            Some(b'[') => {
                if self.open(b']')? {
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.skip()?;
                    if self.next_member(b']', "expected ',' or ']' in array")? {
                        return Ok(());
                    }
                }
            }
            Some(b'"') => self.skip_string(),
            Some(b't') => self.eat_keyword("true"),
            Some(b'f') => self.eat_keyword("false"),
            Some(b'n') => self.eat_keyword("null"),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                self.digits();
                if self.plain_integer(start) {
                    // Digits alone always parse: as a u64, or beyond
                    // u64::MAX as a float.
                    return Ok(());
                }
                self.float(start).map(drop)
            }
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Consumes the opening bracket at the cursor, counting it against
    /// [`MAX_DEPTH`], and the whitespace after it. Returns whether the
    /// container is empty, having consumed its `close` too.
    fn open(&mut self, close: u8) -> Result<bool, JsonParseError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonParseError {
                offset: self.pos,
                message: format!("arrays and objects nest deeper than {MAX_DEPTH}"),
            });
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        let empty = self.peek() == Some(close);
        if empty {
            self.close();
        }
        Ok(empty)
    }

    /// Consumes the closing bracket at the cursor.
    fn close(&mut self) {
        self.depth -= 1;
        self.pos += 1;
    }

    /// Consumes the `:` after an object key, with the whitespace on
    /// both sides.
    fn colon(&mut self) -> Result<(), JsonParseError> {
        self.skip_ws();
        self.eat(b':', "expected ':' after object key")?;
        self.skip_ws();
        Ok(())
    }

    /// After a member: consumes a `,` (false) or the container's
    /// `close` (true).
    fn next_member(&mut self, close: u8, what: &str) -> Result<bool, JsonParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(c) if c == close => {
                self.close();
                Ok(true)
            }
            _ => Err(self.error(what)),
        }
    }

    fn object(&mut self, fields: Option<&[&str]>) -> Result<Json, JsonParseError> {
        let mut kept = Vec::new();
        if self.open(b'}')? {
            return Ok(Json::Obj(kept));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.colon()?;
            if fields.is_none_or(|keys| keys.contains(&key.as_ref())) {
                let value = self.value(None)?;
                kept.push((key.into_owned(), value));
            } else {
                self.skip()?;
            }
            if self.next_member(b'}', "expected ',' or '}' in object")? {
                return Ok(Json::Obj(kept));
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        let mut items = Vec::new();
        if self.open(b']')? {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(None)?);
            if self.next_member(b']', "expected ',' or ']' in array")? {
                return Ok(Json::Arr(items));
            }
        }
    }

    /// Advances over string text up to the next `"`, `\` or control
    /// byte. These delimiters are ASCII, so every run of the `&str`
    /// input starts and ends on a char boundary.
    fn plain_run(&mut self) {
        let run = self.pos;
        self.pos += self.bytes[run..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .unwrap_or(self.bytes.len() - run);
    }

    /// Parses a string, copying the text between escapes a run at a
    /// time. An escape-free string borrows from the input.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonParseError> {
        self.eat(b'"', "expected '\"'")?;
        let input = self.input;
        let start = self.pos;
        let mut unescaped: Option<String> = None;
        loop {
            let run = self.pos;
            self.plain_run();
            if let Some(out) = &mut unescaped {
                out.push_str(&input[run..self.pos]);
            }
            match self.peek() {
                Some(b'"') => {
                    let raw = &input[start..self.pos];
                    self.pos += 1;
                    return Ok(unescaped.map_or(Cow::Borrowed(raw), Cow::Owned));
                }
                Some(b'\\') => {
                    let before = &input[start..self.pos];
                    let c = self.escape()?;
                    unescaped.get_or_insert_with(|| before.to_string()).push(c);
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Checks a string as [`JsonParser::string`] would.
    fn skip_string(&mut self) -> Result<(), JsonParseError> {
        self.eat(b'"', "expected '\"'")?;
        loop {
            self.plain_run();
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.escape()?;
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Decodes the escape sequence starting at the `\` under the cursor.
    fn escape(&mut self) -> Result<char, JsonParseError> {
        self.pos += 1;
        let esc = self
            .peek()
            .ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'u' => {
                let first = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&first) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    self.eat(b'\\', "expected low surrogate")?;
                    self.eat(b'u', "expected low surrogate")?;
                    let second = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&second) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                } else {
                    first
                };
                char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))?
            }
            _ => return Err(self.error("invalid escape character")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// Advances over a run of ASCII digits and returns their value, or
    /// `None` past `u64::MAX`.
    fn digits(&mut self) -> Option<u64> {
        let mut value = Some(0u64);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            value = value.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        value
    }

    /// Whether the digits read since `start` are a whole number: no
    /// sign, fraction or exponent follows.
    fn plain_integer(&self, start: usize) -> bool {
        self.pos > start && !matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        // A plain unsigned integer that fits a u64 is accumulated
        // straight from the bytes (trace records are mostly counters).
        let value = self.digits();
        if self.plain_integer(start) {
            if let Some(v) = value {
                return Ok(Json::U64(v));
            }
        }
        self.float(start).map(Json::F64)
    }

    /// Reads the number at `start` as a float: anything else (a sign,
    /// a fraction, an exponent, or more than u64::MAX).
    fn float(&mut self, start: usize) -> Result<f64, JsonParseError> {
        self.pos = start;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let text = &self.input[start..self.pos];
        text.parse::<f64>().map_err(|_| JsonParseError {
            offset: start,
            message: format!("invalid number {text:?}"),
        })
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(u64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::F64(v) => write_f64(f, *v),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes a float the way [`Json::F64`] prints: `{}` when finite (so
/// `-0.0` prints as `-0`), `null` otherwise.
fn write_f64(out: &mut impl fmt::Write, v: f64) -> fmt::Result {
    if v.is_finite() {
        write!(out, "{v}")
    } else {
        out.write_str("null")
    }
}

/// Writes `s` as a JSON string literal. Each run of characters that
/// needs no escape goes out in one `write_str`; the characters that do
/// are all ASCII, so every run ends on a char boundary.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..0x20 => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if short.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(short)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_str("\"")
}

/// Appends one [`PerfCounters`] as a JSON object.
fn push_counters(out: &mut String, c: &PerfCounters) {
    let _ = write!(
        out,
        concat!(
            r#"{{"instructions":{},"cycles":{},"l1i_misses":{},"l1d_misses":{},"#,
            r#""l2_misses":{},"l3_misses":{},"itlb_misses":{},"dtlb_misses":{},"#,
            r#""branches":{},"branch_mispredicts":{}}}"#,
        ),
        c.instructions,
        c.cycles,
        c.l1i_misses,
        c.l1d_misses,
        c.l2_misses,
        c.l3_misses,
        c.itlb_misses,
        c.dtlb_misses,
        c.branches,
        c.branch_mispredicts,
    );
}

/// A thread-safe JSONL trace writer shared by every experiment.
///
/// Records are written one JSON object per line. Two record shapes
/// exist (distinguished by the `"type"` field):
///
/// - `run`: one benchmark execution — experiment, benchmark, variant
///   (configuration label), run index, engine, seconds, cumulative
///   counters, and the per-randomization-period counter deltas;
/// - `summary`: one experiment-level result with free-form fields.
pub struct TraceSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TraceSink")
    }
}

/// In-memory buffer target for [`TraceSink::in_memory`].
#[derive(Clone, Default)]
pub struct TraceBuffer(Arc<Mutex<Vec<u8>>>);

impl TraceBuffer {
    /// The captured trace as a UTF-8 string.
    pub fn contents(&self) -> String {
        String::from_utf8(self.0.lock().expect("trace buffer lock").clone())
            .expect("traces are UTF-8")
    }

    /// Parsed (well, split) JSONL lines.
    pub fn lines(&self) -> Vec<String> {
        self.contents().lines().map(str::to_string).collect()
    }
}

impl Write for TraceBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Version stamped as a `{"schema":N}` header at the top of
/// file-backed traces. Bump when a record shape changes
/// incompatibly; parsers must keep accepting headerless (pre-stamp)
/// streams as version 0.
pub const TRACE_SCHEMA: u64 = 1;

impl TraceSink {
    /// Wraps any writer.
    pub fn to_writer(out: Box<dyn Write + Send>) -> TraceSink {
        TraceSink {
            out: Mutex::new(out),
        }
    }

    /// Creates (truncating) a JSONL trace file, stamped with a
    /// leading `{"schema":N}` header line. Streaming sinks
    /// ([`TraceSink::in_memory`] and [`TraceSink::to_writer`]) stay
    /// headerless: sz-serve sends a traced reply as its `run` and
    /// `summary` records plus one terminal line, and its readers
    /// (szctl, the server's end-to-end tests, sz-benchmark) end a
    /// reply at the first line of any other type, so a `{"schema":1}`
    /// line would cut every traced reply short.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create(path: impl AsRef<std::path::Path>) -> io::Result<TraceSink> {
        let sink = TraceSink::to_writer(Box::new(io::BufWriter::new(std::fs::File::create(path)?)));
        sink.record(&Json::obj([("schema", TRACE_SCHEMA.into())]));
        Ok(sink)
    }

    /// An in-memory sink plus a handle to read back what was written.
    pub fn in_memory() -> (TraceSink, TraceBuffer) {
        let buffer = TraceBuffer::default();
        (TraceSink::to_writer(Box::new(buffer.clone())), buffer)
    }

    /// Writes one record (a single line).
    pub fn record(&self, value: &Json) {
        let mut line = value.to_string();
        line.push('\n');
        self.write_line(&line);
    }

    /// Hands one finished line to the writer in a single call.
    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().expect("trace sink lock");
        out.write_all(line.as_bytes())
            .expect("trace writes succeed");
    }

    /// Emits a `run` record for one benchmark execution. The text is
    /// written straight into one line, byte for byte what [`Json`]'s
    /// `Display` prints for the same fields in the same order.
    pub fn run_record(
        &self,
        experiment: &str,
        benchmark: &str,
        variant: &str,
        run: usize,
        report: &RunReport,
    ) {
        let mut line = String::with_capacity(400 + 240 * report.periods.len());
        line.push_str(r#"{"type":"run","experiment":"#);
        let _ = write_escaped(&mut line, experiment);
        line.push_str(r#","benchmark":"#);
        let _ = write_escaped(&mut line, benchmark);
        line.push_str(r#","variant":"#);
        let _ = write_escaped(&mut line, variant);
        let _ = write!(line, r#","run":{run},"engine":"#);
        let _ = write_escaped(&mut line, &report.engine);
        line.push_str(r#","seconds":"#);
        let _ = write_f64(&mut line, report.seconds());
        line.push_str(r#","counters":"#);
        push_counters(&mut line, &report.counters);
        line.push_str(r#","periods":["#);
        for (i, p) in report.periods.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(
                line,
                r#"{{"index":{},"start_cycles":{},"end_cycles":{},"counters":"#,
                p.index, p.start_cycles, p.end_cycles
            );
            push_counters(&mut line, &p.counters);
            line.push('}');
        }
        line.push_str("]}\n");
        self.write_line(&line);
    }

    /// Emits a `summary` record with experiment-specific fields.
    pub fn summary_record(&self, experiment: &str, fields: Vec<(&str, Json)>) {
        let mut obj: Vec<(String, Json)> = vec![
            ("type".to_string(), "summary".into()),
            ("experiment".to_string(), experiment.into()),
        ];
        obj.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        self.record(&Json::Obj(obj));
    }

    /// Emits every report of one `(experiment, benchmark, variant)`
    /// series as `run` records.
    pub fn run_records(
        &self,
        experiment: &str,
        benchmark: &str,
        variant: &str,
        reports: &[RunReport],
    ) {
        for (i, report) in reports.iter().enumerate() {
            self.run_record(experiment, benchmark, variant, i, report);
        }
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) {
        let _ = self.out.lock().expect("trace sink lock").flush();
    }
}

/// Dropping a sink flushes it: short-lived traced runs (e.g. one
/// per-request trace inside the server) must never lose tail records
/// to a buffered writer that was dropped before an explicit
/// [`TraceSink::flush`].
impl Drop for TraceSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["a", "long_header"],
            &[
                vec!["xxxxxxxx".into(), "1".into()],
                vec!["y".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // The second column starts at the same offset in every row.
        let col = lines[0].find("long_header").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), col);
        assert_eq!(lines[3].find('2').unwrap(), col);
    }

    #[test]
    fn p_value_formatting() {
        assert_eq!(fmt_p(0.5), "0.500");
        assert_eq!(fmt_p(0.0004), "<0.001");
        assert_eq!(fmt_p_marked(0.01), "0.010*");
        assert_eq!(fmt_p_marked(0.2), "0.200");
    }

    #[test]
    fn verdict_report_serializes_flat_and_renders() {
        let r = sz_stats::judge(
            &[10.0, 10.2, 9.8, 10.1, 9.9, 10.0],
            &[8.0, 8.2, 7.8, 8.1, 7.9, 8.0],
            &sz_stats::VerdictConfig::default(),
        )
        .unwrap();
        let j = verdict_json(&r);
        assert_eq!(j.get("verdict").unwrap().as_str(), Some("robustly-faster"));
        assert_eq!(j.get("n_a").unwrap().as_u64(), Some(6));
        assert_eq!(j.get("resamples").unwrap().as_u64(), Some(1000));
        assert_eq!(j.get("boot_seed").unwrap().as_u64(), Some(0x5EED_B007));
        assert_eq!(j.get("band").unwrap().as_f64(), Some(0.05));
        assert!(j.get("effect_lo").unwrap().as_f64().unwrap() > 1.0);
        // The wire object round-trips through the hand-rolled parser.
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
        let line = fmt_verdict(&r);
        assert!(line.contains("robustly-faster"), "{line}");
        assert!(line.contains("band ±5%"), "{line}");
    }

    #[test]
    fn json_renders_all_value_shapes() {
        let v = Json::obj([
            ("a", 3u64.into()),
            ("b", 1.5f64.into()),
            ("c", "x\"y\\z\n".into()),
            ("d", Json::Arr(vec![Json::Null, true.into()])),
            ("e", f64::NAN.into()),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"a":3,"b":1.5,"c":"x\"y\\z\n","d":[null,true],"e":null}"#
        );
    }

    #[test]
    fn trace_sink_writes_jsonl_records() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.summary_record("selftest", vec![("k", 7u64.into())]);
        sink.summary_record("selftest", vec![("k", 8u64.into())]);
        let lines = buffer.lines();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"type":"summary","experiment":"selftest","k":7}"#
        );
        assert!(lines[1].contains("\"k\":8"));
    }

    #[test]
    fn parse_round_trips_every_value_shape() {
        let v = Json::obj([
            ("a", 3u64.into()),
            ("b", 1.5f64.into()),
            ("c", "x\"y\\z\n".into()),
            ("d", Json::Arr(vec![Json::Null, true.into(), false.into()])),
            ("e", Json::obj([("nested", 7u64.into())])),
        ]);
        let parsed = Json::parse(&v.to_string()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn parse_handles_whitespace_numbers_and_escapes() {
        let v = Json::parse(
            " { \"k\" : [ -2.5 , 1e3 , 18446744073709551615, \"\\u00e9\\uD83D\\uDE00\" ] } ",
        )
        .unwrap();
        let arr = v.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(-2.5));
        assert_eq!(arr[1].as_f64(), Some(1000.0));
        assert_eq!(arr[2].as_u64(), Some(u64::MAX));
        assert_eq!(arr[3].as_str(), Some("é😀"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// 1 MiB (sz-serve's line cap) of either opener is rejected at the
    /// first bracket past [`MAX_DEPTH`], kept or skipped, on a thread
    /// with the 2 MiB default stack of an event-loop thread.
    #[test]
    fn nesting_is_bounded_on_a_small_stack() {
        let errors = |input: String| {
            std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || {
                    [
                        Json::parse(&input).unwrap_err(),
                        Json::parse_fields(&input, &["a"]).unwrap_err(),
                        Json::parse_fields(&input, &[]).unwrap_err(),
                    ]
                })
                .unwrap()
                .join()
                .unwrap()
        };
        for (opener, input) in [
            ("[", "[".repeat(1 << 20)),
            (r#"{"a":"#, r#"{"a":"#.repeat((1 << 20) / 5)),
        ] {
            let [full, kept, skipped] = errors(input);
            assert_eq!(full.offset, MAX_DEPTH * opener.len());
            assert_eq!(full.message, "arrays and objects nest deeper than 128");
            assert_eq!(kept, full);
            assert_eq!(skipped, full);
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
    }

    #[test]
    fn parse_fields_keeps_only_the_named_top_level_keys() {
        let line = r#"{"type":"run","periods":[{"x":"é"}],"run":3,"type":"dup"}"#;
        let v = Json::parse_fields(line, &["type", "run"]).unwrap();
        assert_eq!(v.to_string(), r#"{"type":"run","run":3,"type":"dup"}"#);
        // An escaped key still matches, and a non-object comes back whole.
        let v = Json::parse_fields("{\"r\\u0075n\":1,\"b\":2}", &["run"]).unwrap();
        assert_eq!(v.to_string(), r#"{"run":1}"#);
        assert_eq!(Json::parse_fields("[1,2]", &["a"]), Json::parse("[1,2]"));
        // A skipped value is still checked.
        let err = Json::parse_fields(r#"{"a":1,"b":"\q"}"#, &["a"]).unwrap_err();
        assert_eq!(err, Json::parse(r#"{"a":1,"b":"\q"}"#).unwrap_err());
    }

    #[test]
    fn accessors_distinguish_shapes() {
        let v = Json::parse(r#"{"n":4,"f":4.5,"s":"x","b":true,"a":[1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(4.0));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("n").is_none());
    }

    #[test]
    fn drop_flushes_the_underlying_writer() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct CountsFlushes(Arc<AtomicUsize>);
        impl Write for CountsFlushes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }

        let flushes = Arc::new(AtomicUsize::new(0));
        let sink = TraceSink::to_writer(Box::new(CountsFlushes(flushes.clone())));
        sink.summary_record("selftest", vec![("k", 1u64.into())]);
        assert_eq!(flushes.load(Ordering::SeqCst), 0, "records do not flush");
        drop(sink);
        assert!(
            flushes.load(Ordering::SeqCst) >= 1,
            "drop must flush buffered tail records"
        );
    }

    #[test]
    fn run_record_carries_counters_and_periods() {
        use sz_machine::{PeriodSnapshot, SimTime};
        let counters = PerfCounters {
            instructions: 10,
            cycles: 40,
            l1d_misses: 2,
            ..Default::default()
        };
        let report = RunReport {
            cycles: 40,
            instructions: 10,
            time: SimTime::from_nanos(12.5),
            counters,
            periods: vec![PeriodSnapshot {
                index: 0,
                start_cycles: 0,
                end_cycles: 40,
                counters,
            }],
            return_value: Some(1),
            engine: "stabilizer".to_string(),
        };
        let (sink, buffer) = TraceSink::in_memory();
        sink.run_record("table1", "mcf", "rerandomized", 3, &report);
        let line = buffer.contents();
        assert!(line.contains(r#""type":"run""#));
        assert!(line.contains(r#""benchmark":"mcf""#));
        assert!(line.contains(r#""variant":"rerandomized""#));
        assert!(line.contains(r#""run":3"#));
        assert!(line.contains(r#""l1d_misses":2"#));
        assert!(line.contains(r#""periods":[{"index":0"#));
    }
}
