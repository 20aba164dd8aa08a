//! Streaming SELECT/ASK result serialization — the wire formats of the
//! SPARQL 1.1 Protocol, shared by the HTTP endpoint (`sp2b_server`) and
//! the CLI's `sp2b query --format …` output.
//!
//! [`write_solutions`] consumes a [`Solutions`] stream row by row and
//! composes every format in one buffer that drains to an [`io::Write`]
//! every [`FLUSH_BYTES`], so a SELECT result is **never materialized** on
//! the serializing side: memory stays bounded by a few KiB and one row
//! regardless of cardinality, and the first bytes hit the wire before the
//! last row was computed. A row is composed with plain byte appends — a
//! JSON row's `"var":` keys are rendered once per stream, and a string
//! with nothing to escape is copied in one piece.
//!
//! Formats:
//!
//! * [`Format::Json`] — SPARQL 1.1 Query Results JSON
//!   (`application/sparql-results+json`): `head.vars` +
//!   `results.bindings`, each binding typed `uri`/`bnode`/`literal` with
//!   optional `datatype`/`xml:lang`. ASK serializes as
//!   `{"head":{},"boolean":…}`.
//! * [`Format::Csv`] — SPARQL 1.1 Results CSV (`text/csv`): header of
//!   bare variable names, RFC 4180 quoting, terms in plain lexical form
//!   (IRIs without angle brackets, blanks as `_:label`).
//! * [`Format::Tsv`] — SPARQL 1.1 Results TSV
//!   (`text/tab-separated-values`): header of `?var` names, terms in
//!   Turtle-ish encoded form with `\t`/`\n`/`\r`/`\"`/`\\` escaped.
//!
//! ASK has no CSV/TSV serialization in the spec; both writers emit the
//! single line `true`/`false` (endpoints conventionally label that body
//! `text/boolean`), which keeps every query shape servable in every
//! format.

use std::io::{self, Write};

use sp2b_rdf::TermRef;

use crate::api::{Error, Solutions};

/// A SELECT/ASK result wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// SPARQL 1.1 Query Results JSON.
    Json,
    /// SPARQL 1.1 Query Results CSV.
    Csv,
    /// SPARQL 1.1 Query Results TSV.
    Tsv,
}

impl Format {
    /// The media type this format is served as.
    pub fn content_type(self) -> &'static str {
        match self {
            Format::Json => "application/sparql-results+json",
            Format::Csv => "text/csv; charset=utf-8",
            Format::Tsv => "text/tab-separated-values; charset=utf-8",
        }
    }

    /// The media type an ASK result is served as in this format (CSV/TSV
    /// have no spec'd boolean form; the conventional `text/boolean` body
    /// is a bare `true`/`false` line).
    pub fn ask_content_type(self) -> &'static str {
        match self {
            Format::Json => "application/sparql-results+json",
            Format::Csv | Format::Tsv => "text/boolean",
        }
    }

    /// Resolves a bare media type (no parameters) to a format. Accepts
    /// the registered names plus the pragmatic aliases endpoints see in
    /// the wild (`application/json`, `text/json`, `csv`, `tsv`).
    pub fn from_media_type(mt: &str) -> Option<Format> {
        match mt.trim().to_ascii_lowercase().as_str() {
            "application/sparql-results+json" | "application/json" | "text/json" | "json" => {
                Some(Format::Json)
            }
            "text/csv" | "csv" => Some(Format::Csv),
            "text/tab-separated-values" | "tsv" => Some(Format::Tsv),
            _ => None,
        }
    }

    /// The CLI spelling (`--format json|csv|tsv`).
    pub fn label(self) -> &'static str {
        match self {
            Format::Json => "json",
            Format::Csv => "csv",
            Format::Tsv => "tsv",
        }
    }
}

/// Why a streaming serialization stopped early.
#[derive(Debug)]
pub enum WriteError {
    /// The output sink failed (for the HTTP server: the client hung up
    /// mid-stream — the caller drops the `Solutions`, cancelling the
    /// query).
    Io(io::Error),
    /// The query itself failed mid-stream (timeout/cancellation).
    Query(Error),
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::Io(e) => write!(f, "write failed: {e}"),
            WriteError::Query(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for WriteError {}

impl From<io::Error> for WriteError {
    fn from(e: io::Error) -> Self {
        WriteError::Io(e)
    }
}

/// Bytes a result body composes before it goes to the writer.
pub const FLUSH_BYTES: usize = 8 * 1024;

/// Serializes a whole solution stream in `format`, returning the number
/// of result rows written (ASK: 1 for `true`, 0 for `false` — the value
/// that agrees with `QueryEngine::count`).
///
/// `ask` must be the prepared query's ASK-ness: an ASK stream yields
/// zero or one *empty* solution, which the writers turn into the
/// boolean forms described on [`Format`].
///
/// Every format composes its rows in one buffer, which goes
/// to `out` whenever it holds [`FLUSH_BYTES`], at the end, and before a
/// query error is returned: what reaches `out` before an error is every
/// row delivered until then, as if each had been written at once.
pub fn write_solutions(
    out: &mut dyn Write,
    format: Format,
    solutions: &mut Solutions<'_>,
    ask: bool,
) -> Result<u64, WriteError> {
    let mut body = Body {
        out,
        buf: Vec::with_capacity(2 * FLUSH_BYTES),
    };
    let written = if ask {
        body.ask(format, solutions)
    } else {
        body.select(format, solutions)
    };
    match written {
        Err(WriteError::Io(e)) => Err(WriteError::Io(e)),
        written => {
            body.flush()?;
            written
        }
    }
}

/// A result body being composed: the buffer, and the writer it drains to.
struct Body<'w> {
    out: &'w mut dyn Write,
    buf: Vec<u8>,
}

impl Body<'_> {
    fn flush(&mut self) -> io::Result<()> {
        self.out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// The boolean forms: one (empty) solution means `true`.
    fn ask(&mut self, format: Format, solutions: &mut Solutions<'_>) -> Result<u64, WriteError> {
        let yes = match solutions.next() {
            None => false,
            Some(Ok(_)) => true,
            Some(Err(e)) => return Err(WriteError::Query(e)),
        };
        let text: &[u8] = if yes { b"true" } else { b"false" };
        match format {
            Format::Json => {
                self.buf.extend_from_slice(b"{\"head\":{},\"boolean\":");
                self.buf.extend_from_slice(text);
                self.buf.push(b'}');
            }
            Format::Csv | Format::Tsv => {
                self.buf.extend_from_slice(text);
                self.buf.push(b'\n');
            }
        }
        Ok(u64::from(yes))
    }

    /// A SELECT result: the header, one row per solution, the trailer.
    fn select(&mut self, format: Format, solutions: &mut Solutions<'_>) -> Result<u64, WriteError> {
        let variables = solutions.variables();
        let buf = &mut self.buf;
        // JSON's `"var":` binding keys, rendered once for the stream.
        let mut keys = Vec::new();
        match format {
            Format::Json => {
                buf.extend_from_slice(b"{\"head\":{\"vars\":[");
                for (i, v) in variables.iter().enumerate() {
                    if i > 0 {
                        buf.push(b',');
                    }
                    json_string(buf, v);
                    let mut key = Vec::new();
                    json_string(&mut key, v);
                    key.push(b':');
                    keys.push(key);
                }
                buf.extend_from_slice(b"]},\"results\":{\"bindings\":[");
            }
            Format::Csv => {
                for (i, v) in variables.iter().enumerate() {
                    if i > 0 {
                        buf.push(b',');
                    }
                    csv_field(buf, "", v);
                }
                buf.extend_from_slice(b"\r\n");
            }
            Format::Tsv => {
                for (i, v) in variables.iter().enumerate() {
                    if i > 0 {
                        buf.push(b'\t');
                    }
                    buf.push(b'?');
                    buf.extend_from_slice(v.as_bytes());
                }
                buf.push(b'\n');
            }
        }
        let mut rows = 0u64;
        for solution in solutions.by_ref() {
            let solution = solution.map_err(WriteError::Query)?;
            let buf = &mut self.buf;
            match format {
                Format::Json => {
                    buf.extend_from_slice(if rows > 0 { b",{" } else { b"{" });
                    let mut first = true;
                    for (i, key) in keys.iter().enumerate() {
                        // Unbound: omitted from the binding object.
                        solution.with_term(i, |term| {
                            if !first {
                                buf.push(b',');
                            }
                            first = false;
                            buf.extend_from_slice(key);
                            json_term(buf, term);
                        });
                    }
                    buf.push(b'}');
                }
                Format::Csv | Format::Tsv => {
                    let (separator, end): (u8, &[u8]) = match format {
                        Format::Csv => (b',', b"\r\n"),
                        _ => (b'\t', b"\n"),
                    };
                    for i in 0..variables.len() {
                        if i > 0 {
                            buf.push(separator);
                        }
                        solution.with_term(i, |term| match format {
                            Format::Csv => csv_term(buf, term),
                            _ => tsv_term(buf, term),
                        });
                    }
                    buf.extend_from_slice(end);
                }
            }
            rows += 1;
            if self.buf.len() >= FLUSH_BYTES {
                self.flush()?;
            }
        }
        if format == Format::Json {
            self.buf.extend_from_slice(b"]}}");
        }
        Ok(rows)
    }
}

/// The CLI's human-readable preview (the fourth "format"): a
/// tab-separated header and up to `limit` rows (unbound columns as
/// `-`), each line prefixed with `indent`, while the remaining rows are
/// only counted — the tail never decodes a term. Returns
/// `(total_rows, rows_shown)`.
pub fn write_table_preview(
    out: &mut dyn Write,
    solutions: &mut Solutions<'_>,
    limit: usize,
    indent: &str,
) -> Result<(u64, usize), WriteError> {
    writeln!(out, "{indent}{}", solutions.variables().join("\t"))?;
    let mut total = 0u64;
    let mut shown = 0usize;
    for solution in solutions {
        let solution = solution.map_err(WriteError::Query)?;
        total += 1;
        if shown < limit {
            let line: Vec<String> = (0..solution.len())
                .map(|i| {
                    solution
                        .with_term(i, |t| t.to_string())
                        .unwrap_or_else(|| "-".into())
                })
                .collect();
            writeln!(out, "{indent}{}", line.join("\t"))?;
            shown += 1;
        }
    }
    Ok((total, shown))
}

/// Appends `bytes` to `buf` with each byte `escape` maps to a sequence
/// replaced by it. Only a quote, a backslash or a control byte can be
/// escaped (every format's escapes are among these), so the runs between
/// them are found eight bytes at a time and copied in one piece each — a
/// string with none is one `extend_from_slice`. Only ASCII bytes are ever
/// escaped, so scanning bytes is safe on UTF-8.
fn escaped(buf: &mut Vec<u8>, mut bytes: &[u8], escape: impl Fn(u8) -> Option<&'static [u8]>) {
    loop {
        let plain = plain_prefix(bytes);
        buf.extend_from_slice(&bytes[..plain]);
        let Some(&b) = bytes.get(plain) else {
            return;
        };
        match escape(b) {
            Some(seq) => buf.extend_from_slice(seq),
            None => buf.push(b),
        }
        bytes = &bytes[plain + 1..];
    }
}

/// How many leading bytes of `bytes` are neither a quote, a backslash nor
/// a control byte: whole 8-byte words tested at once, then the rest.
fn plain_prefix(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    // Sets a byte's high bit for some zero byte of `v` when there is one.
    let zero = |v: u64| v.wrapping_sub(ONES) & !v & HIGH;
    let mut words = bytes.chunks_exact(8);
    let mut i = 0;
    for word in words.by_ref() {
        let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        let control = w.wrapping_sub(ONES * 0x20) & !w & HIGH;
        if control | zero(w ^ (ONES * u64::from(b'"'))) | zero(w ^ (ONES * u64::from(b'\\'))) != 0 {
            break;
        }
        i += 8;
    }
    i + bytes[i..]
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
        .unwrap_or(bytes.len() - i)
}

/// The CSV lexical form: IRIs bare, blanks `_:label`, literals their
/// lexical value (datatype/language dropped, per the CSV results spec).
fn csv_term(buf: &mut Vec<u8>, term: TermRef<'_>) {
    match term {
        TermRef::Iri(iri) => csv_field(buf, "", iri),
        TermRef::Blank(label) => csv_field(buf, "_:", label),
        TermRef::Literal(l) => csv_field(buf, "", l.lexical),
    }
}

/// `prefix` then `s` as one RFC 4180 field, quoted (quotes doubled) when
/// `s` holds a quote, comma or line break.
fn csv_field(buf: &mut Vec<u8>, prefix: &str, s: &str) {
    if !s.bytes().any(|b| matches!(b, b'"' | b',' | b'\n' | b'\r')) {
        buf.extend_from_slice(prefix.as_bytes());
        buf.extend_from_slice(s.as_bytes());
        return;
    }
    buf.push(b'"');
    buf.extend_from_slice(prefix.as_bytes());
    escaped(buf, s.as_bytes(), |b| (b == b'"').then_some(b"\"\""));
    buf.push(b'"');
}

/// TSV term encoding: Turtle-ish forms with the tab/newline-sensitive
/// characters escaped so one row is always one line.
fn tsv_term(buf: &mut Vec<u8>, term: TermRef<'_>) {
    match term {
        TermRef::Iri(iri) => {
            buf.push(b'<');
            buf.extend_from_slice(iri.as_bytes());
            buf.push(b'>');
        }
        TermRef::Blank(label) => {
            buf.extend_from_slice(b"_:");
            buf.extend_from_slice(label.as_bytes());
        }
        TermRef::Literal(l) => {
            buf.push(b'"');
            escaped(buf, l.lexical.as_bytes(), |b| match b {
                b'\\' => Some(b"\\\\"),
                b'"' => Some(b"\\\""),
                b'\t' => Some(b"\\t"),
                b'\n' => Some(b"\\n"),
                b'\r' => Some(b"\\r"),
                _ => None,
            });
            buf.push(b'"');
            if let Some(lang) = l.language {
                buf.push(b'@');
                buf.extend_from_slice(lang.as_bytes());
            } else if let Some(dt) = l.datatype {
                buf.extend_from_slice(b"^^<");
                buf.extend_from_slice(dt.as_bytes());
                buf.push(b'>');
            }
        }
    }
}

/// The `\u00XX` escapes of the JSON control characters, by byte.
const JSON_CONTROL: [[u8; 6]; 32] = {
    let hex = b"0123456789abcdef";
    let mut table = [*b"\\u0000"; 32];
    let mut b = 0;
    while b < 32 {
        table[b][4] = hex[b >> 4];
        table[b][5] = hex[b & 15];
        b += 1;
    }
    table
};

/// JSON string literal with the mandatory escapes: the hottest loop of
/// the HTTP serving path (every IRI and literal of every JSON row passes
/// through it).
fn json_string(buf: &mut Vec<u8>, s: &str) {
    buf.push(b'"');
    escaped(buf, s.as_bytes(), |b| match b {
        b'"' => Some(b"\\\""),
        b'\\' => Some(b"\\\\"),
        b'\n' => Some(b"\\n"),
        b'\r' => Some(b"\\r"),
        b'\t' => Some(b"\\t"),
        0x00..=0x1f => Some(&JSON_CONTROL[b as usize]),
        _ => None,
    });
    buf.push(b'"');
}

/// One SPARQL-JSON term object.
fn json_term(buf: &mut Vec<u8>, term: TermRef<'_>) {
    match term {
        TermRef::Iri(iri) => {
            buf.extend_from_slice(b"{\"type\":\"uri\",\"value\":");
            json_string(buf, iri);
        }
        TermRef::Blank(label) => {
            buf.extend_from_slice(b"{\"type\":\"bnode\",\"value\":");
            json_string(buf, label);
        }
        TermRef::Literal(l) => {
            buf.extend_from_slice(b"{\"type\":\"literal\",\"value\":");
            json_string(buf, l.lexical);
            if let Some(lang) = l.language {
                buf.extend_from_slice(b",\"xml:lang\":");
                json_string(buf, lang);
            } else if let Some(dt) = l.datatype {
                buf.extend_from_slice(b",\"datatype\":");
                json_string(buf, dt);
            }
        }
    }
    buf.push(b'}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{QueryEngine, QueryOptions};
    use crate::testing::load;
    use crate::Cancellation;
    use sp2b_rdf::{Graph, Iri, Literal, Subject, Term};
    use sp2b_store::{
        sharded_store_from_reader, Dictionary, IdTriple, Pattern, ScanChunk, ShardBackend, ShardBy,
        ShardedStore, StoreStats, TripleStore,
    };
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

    fn engine() -> QueryEngine {
        let mut g = Graph::new();
        g.add(
            Subject::iri("http://x/s1"),
            Iri::new("http://x/p"),
            Term::Literal(Literal::integer(7)),
        );
        g.add(
            Subject::iri("http://x/s2"),
            Iri::new("http://x/p"),
            Term::Literal(Literal::string("a,\"b\"\nc\td")),
        );
        g.add(
            Subject::blank("node1"),
            Iri::new("http://x/p"),
            Term::iri("http://x/o"),
        );
        QueryEngine::with_options(
            load(&g, ShardBackend::Mem).into_shared(),
            QueryOptions::new().parallelism(1),
        )
    }

    fn serialize(format: Format, query: &str) -> (String, u64) {
        let engine = engine();
        let prepared = engine.prepare(query).unwrap();
        let mut out = Vec::new();
        let mut solutions = engine.solutions(&prepared);
        let rows = write_solutions(&mut out, format, &mut solutions, prepared.is_ask()).unwrap();
        (String::from_utf8(out).unwrap(), rows)
    }

    const ALL: &str = "SELECT ?s ?v WHERE { ?s <http://x/p> ?v } ORDER BY ?s";

    #[test]
    fn json_select_has_head_and_typed_bindings() {
        let (json, rows) = serialize(Format::Json, ALL);
        assert_eq!(rows, 3);
        assert!(
            json.starts_with("{\"head\":{\"vars\":[\"s\",\"v\"]}"),
            "{json}"
        );
        assert!(
            json.contains("\"type\":\"uri\",\"value\":\"http://x/s1\""),
            "{json}"
        );
        assert!(
            json.contains("\"type\":\"bnode\",\"value\":\"node1\""),
            "{json}"
        );
        assert!(
            json.contains("\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\""),
            "{json}"
        );
        // The awkward literal is escaped, newline included.
        assert!(json.contains("a,\\\"b\\\"\\nc\\td"), "{json}");
        assert!(json.ends_with("]}}"), "{json}");
    }

    #[test]
    fn csv_quotes_awkward_fields_and_counts_rows() {
        let (csv, rows) = serialize(Format::Csv, ALL);
        assert_eq!(rows, 3);
        let mut lines = csv.split("\r\n");
        assert_eq!(lines.next(), Some("s,v"));
        // Blank nodes sort first (SPARQL term order).
        assert_eq!(lines.next(), Some("_:node1,http://x/o"));
        assert_eq!(lines.next(), Some("http://x/s1,7"));
        // The embedded quote/comma/newline field is RFC 4180-quoted.
        assert!(csv.contains("\"a,\"\"b\"\"\nc\td\""), "{csv:?}");
    }

    #[test]
    fn tsv_rows_are_single_lines() {
        let (tsv, rows) = serialize(Format::Tsv, ALL);
        assert_eq!(rows, 3);
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 rows exactly: {tsv:?}");
        assert_eq!(lines[0], "?s\t?v");
        assert!(lines[2].starts_with("<http://x/s1>\t\"7\"^^<"), "{tsv}");
        // The embedded tab/newline are escape sequences, not separators.
        assert!(tsv.contains("\\n"), "{tsv}");
        assert!(tsv.contains("\\t"), "{tsv}");
    }

    #[test]
    fn unbound_columns_serialize_empty() {
        let q = "SELECT ?s ?w WHERE { ?s <http://x/p> ?v OPTIONAL { ?v <http://x/q> ?w } }";
        let (csv, rows) = serialize(Format::Csv, q);
        assert_eq!(rows, 3);
        assert!(csv.contains(",\r\n"), "unbound CSV cell is empty: {csv:?}");
        let (json, _) = serialize(Format::Json, q);
        assert!(
            !json.contains("\"w\":"),
            "unbound JSON binding omitted: {json}"
        );
    }

    #[test]
    fn ask_serializes_as_boolean_in_every_format() {
        for (format, yes, no) in [
            (
                Format::Json,
                "{\"head\":{},\"boolean\":true}",
                "{\"head\":{},\"boolean\":false}",
            ),
            (Format::Csv, "true\n", "false\n"),
            (Format::Tsv, "true\n", "false\n"),
        ] {
            let (body, rows) = serialize(format, "ASK { ?s <http://x/p> 7 }");
            assert_eq!(body, yes);
            assert_eq!(rows, 1);
            let (body, rows) = serialize(format, "ASK { ?s <http://x/p> 9999 }");
            assert_eq!(body, no);
            assert_eq!(rows, 0);
        }
    }

    #[test]
    fn aggregate_streams_through_the_writers() {
        let (json, rows) = serialize(
            Format::Json,
            "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://x/p> ?v }",
        );
        assert_eq!(rows, 1);
        assert!(
            json.contains("\"n\":{\"type\":\"literal\",\"value\":\"3\""),
            "{json}"
        );
    }

    #[test]
    fn table_preview_limits_but_counts_everything() {
        let engine = engine();
        let prepared = engine.prepare(ALL).unwrap();
        let mut out = Vec::new();
        let mut solutions = engine.solutions(&prepared);
        let (total, shown) = write_table_preview(&mut out, &mut solutions, 1, "  ").unwrap();
        assert_eq!((total, shown), (3, 1));
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2, "header + 1 row: {text:?}");
        assert!(text.starts_with("  s\tv\n"), "{text:?}");
    }

    /// Every kind of cell the writers render: quotes, backslash, tab,
    /// newline, carriage return and a control character in one literal,
    /// non-ASCII under a language tag, typed literals, a blank node, and
    /// `?w` unbound for three of the five rows.
    const CELLS: &str = r#"<http://x/s1> <http://x/p> "q\"b\\s\tt\nn\rr\u0001c" .
<http://x/s2> <http://x/p> "héllo ✓"@en .
_:node1 <http://x/p> <http://x/o> .
<http://x/s3> <http://x/p> "7"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/s4> <http://x/p> "a,b"^^<http://x/dt> .
<http://x/s1> <http://x/q> <http://x/w> .
_:node1 <http://x/q> "plain" .
"#;

    fn engine_over(ntriples: &str) -> QueryEngine {
        let store =
            sharded_store_from_reader(ntriples.as_bytes(), 1, ShardBy::Subject, ShardBackend::Mem)
                .expect("valid N-Triples");
        QueryEngine::with_options(store.into_shared(), QueryOptions::new().parallelism(1))
    }

    fn bytes_of(engine: &QueryEngine, format: Format, query: &str) -> String {
        let prepared = engine.prepare(query).unwrap();
        let mut out = Vec::new();
        let mut solutions = engine.solutions(&prepared);
        write_solutions(&mut out, format, &mut solutions, prepared.is_ask()).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn every_format_writes_exactly_these_bytes() {
        let engine = engine_over(CELLS);
        let rows = "SELECT ?s ?v ?w WHERE { ?s <http://x/p> ?v \
                    OPTIONAL { ?s <http://x/q> ?w } } ORDER BY ?s";
        let int = "http://www.w3.org/2001/XMLSchema#integer";
        let json = [
            r#"{"head":{"vars":["s","v","w"]},"results":{"bindings":["#,
            r#"{"s":{"type":"bnode","value":"node1"},"v":{"type":"uri","value":"http://x/o"},"#,
            r#""w":{"type":"literal","value":"plain"}},"#,
            r#"{"s":{"type":"uri","value":"http://x/s1"},"#,
            r#""v":{"type":"literal","value":"q\"b\\s\tt\nn\rr\u0001c"},"#,
            r#""w":{"type":"uri","value":"http://x/w"}},"#,
            r#"{"s":{"type":"uri","value":"http://x/s2"},"#,
            r#""v":{"type":"literal","value":"héllo ✓","xml:lang":"en"}},"#,
            r#"{"s":{"type":"uri","value":"http://x/s3"},"#,
            &format!(r#""v":{{"type":"literal","value":"7","datatype":"{int}"}}}},"#),
            r#"{"s":{"type":"uri","value":"http://x/s4"},"#,
            r#""v":{"type":"literal","value":"a,b","datatype":"http://x/dt"}}]}}"#,
        ]
        .concat();
        assert_eq!(bytes_of(&engine, Format::Json, rows), json);
        let csv = "s,v,w\r\n\
                   _:node1,http://x/o,plain\r\n\
                   http://x/s1,\"q\"\"b\\s\tt\nn\rr\u{1}c\",http://x/w\r\n\
                   http://x/s2,héllo ✓,\r\n\
                   http://x/s3,7,\r\n\
                   http://x/s4,\"a,b\",\r\n";
        assert_eq!(bytes_of(&engine, Format::Csv, rows), csv);
        let tsv = format!(
            "?s\t?v\t?w\n\
             _:node1\t<http://x/o>\t\"plain\"\n\
             <http://x/s1>\t\"q\\\"b\\\\s\\tt\\nn\\rr\u{1}c\"\t<http://x/w>\n\
             <http://x/s2>\t\"héllo ✓\"@en\t\n\
             <http://x/s3>\t\"7\"^^<{int}>\t\n\
             <http://x/s4>\t\"a,b\"^^<http://x/dt>\t\n"
        );
        assert_eq!(bytes_of(&engine, Format::Tsv, rows), tsv);

        // Count columns render as xsd:integer literals.
        let counts = "SELECT ?s (COUNT(?v) AS ?n) WHERE { ?s ?p ?v } GROUP BY ?s ORDER BY DESC(?n)";
        let count = |n: u32| format!(r#"{{"type":"literal","value":"{n}","datatype":"{int}"}}"#);
        let json = format!(
            r#"{{"head":{{"vars":["s","n"]}},"results":{{"bindings":[{{"s":{{"type":"bnode","value":"node1"}},"n":{}}},{{"s":{{"type":"uri","value":"http://x/s1"}},"n":{}}},{{"s":{{"type":"uri","value":"http://x/s2"}},"n":{}}},{{"s":{{"type":"uri","value":"http://x/s3"}},"n":{}}},{{"s":{{"type":"uri","value":"http://x/s4"}},"n":{}}}]}}}}"#,
            count(2),
            count(2),
            count(1),
            count(1),
            count(1)
        );
        assert_eq!(bytes_of(&engine, Format::Json, counts), json);
        let csv = "s,n\r\n_:node1,2\r\nhttp://x/s1,2\r\nhttp://x/s2,1\r\nhttp://x/s3,1\r\nhttp://x/s4,1\r\n";
        assert_eq!(bytes_of(&engine, Format::Csv, counts), csv);
        let tsv = format!(
            "?s\t?n\n_:node1\t\"2\"^^<{int}>\n<http://x/s1>\t\"2\"^^<{int}>\n\
             <http://x/s2>\t\"1\"^^<{int}>\n<http://x/s3>\t\"1\"^^<{int}>\n<http://x/s4>\t\"1\"^^<{int}>\n"
        );
        assert_eq!(bytes_of(&engine, Format::Tsv, counts), tsv);

        for (format, yes, no) in [
            (
                Format::Json,
                r#"{"head":{},"boolean":true}"#,
                r#"{"head":{},"boolean":false}"#,
            ),
            (Format::Csv, "true\n", "false\n"),
            (Format::Tsv, "true\n", "false\n"),
        ] {
            assert_eq!(bytes_of(&engine, format, "ASK { ?s <http://x/p> 7 }"), yes);
            assert_eq!(bytes_of(&engine, format, "ASK { ?s <http://x/p> 8 }"), no);
        }
    }

    #[test]
    fn the_word_scan_stops_at_every_special_byte_at_every_offset() {
        // A reference escape, one byte at a time.
        let naive = |s: &str| {
            let mut out = Vec::new();
            for b in s.bytes() {
                match b {
                    b'"' => out.extend_from_slice(b"\\\""),
                    b'\\' => out.extend_from_slice(b"\\\\"),
                    b'\n' => out.extend_from_slice(b"\\n"),
                    b'\r' => out.extend_from_slice(b"\\r"),
                    b'\t' => out.extend_from_slice(b"\\t"),
                    0..=0x1f => out.extend_from_slice(format!("\\u{b:04x}").as_bytes()),
                    _ => out.push(b),
                }
            }
            out
        };
        for special in [
            "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "é", "\u{7f}", " ", "!", "]",
        ] {
            for at in 0..20 {
                for len in [at, at + 1, at + 9, 24] {
                    let mut s = "x".repeat(at);
                    s.push_str(special);
                    s.push_str(&"y".repeat(len - at));
                    let mut out = Vec::new();
                    json_string(&mut out, &s);
                    assert_eq!(out[1..out.len() - 1], naive(&s), "{s:?}");
                }
            }
        }
    }

    /// A sink that cancels the query once it holds `at` bytes.
    struct CancelAt {
        out: Vec<u8>,
        at: usize,
        cancel: Cancellation,
    }

    impl Write for CancelAt {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.out.extend_from_slice(bytes);
            if self.out.len() >= self.at {
                self.cancel.cancel();
            }
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A store that reports a fault from its `after + 1`-th check on. A
    /// stream checks once per row it pulls, so it delivers `after` rows
    /// and then the error.
    struct FaultAfter {
        inner: ShardedStore,
        checks: AtomicUsize,
        after: usize,
    }

    impl TripleStore for FaultAfter {
        fn dictionary(&self) -> &Dictionary {
            self.inner.dictionary()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn scan<'a>(&'a self, pattern: Pattern) -> Box<dyn Iterator<Item = IdTriple> + 'a> {
            self.inner.scan(pattern)
        }
        fn scan_chunks(&self, pattern: Pattern, n: usize) -> Vec<ScanChunk<'_>> {
            self.inner.scan_chunks(pattern, n)
        }
        fn estimate(&self, pattern: Pattern) -> u64 {
            self.inner.estimate(pattern)
        }
        fn stats(&self) -> &StoreStats {
            self.inner.stats()
        }
        fn fault(&self) -> Option<&str> {
            let check = self.checks.fetch_add(1, AtomicOrdering::SeqCst);
            (check >= self.after).then_some("block checksum mismatch")
        }
    }

    /// Where the header of a serialized result ends, then where each of
    /// its rows does (the rows' values hold no `}`).
    fn boundaries(format: Format, body: &[u8]) -> Vec<usize> {
        let (header_end, row_end): (&[u8], &[u8]) = match format {
            Format::Json => (b"\"bindings\":[", b"}}"),
            Format::Csv => (b"\r\n", b"\r\n"),
            Format::Tsv => (b"\n", b"\n"),
        };
        let ends = |pattern: &'static [u8]| {
            (0..body.len())
                .filter(move |&i| body[i..].starts_with(pattern))
                .map(move |i| i + pattern.len())
        };
        let header = ends(header_end).next().expect("a header");
        std::iter::once(header)
            .chain(ends(row_end).filter(|&end| end > header))
            .collect()
    }

    #[test]
    fn a_query_failing_after_k_rows_leaves_exactly_those_rows_in_out() {
        let query = "SELECT ?s ?v WHERE { ?s <http://x/p> ?v } ORDER BY ?s";
        let document = |value: &str| -> String {
            (0..5)
                .map(|i| format!("<http://x/s{i}> <http://x/p> \"{value}\" .\n"))
                .collect()
        };
        // Rows that outgrow the buffer go to `out` one by one, so a sink
        // that cancels once row k has arrived stops the stream there.
        let big = document(&"a".repeat(FLUSH_BYTES + 100));
        let engine = engine_over(&big);
        let prepared = engine.prepare(query).unwrap();
        for format in [Format::Json, Format::Csv, Format::Tsv] {
            let full = bytes_of(&engine, format, query).into_bytes();
            let bounds = boundaries(format, &full);
            for k in 1..=3 {
                let cancel = engine.cancellation();
                let mut sink = CancelAt {
                    out: Vec::new(),
                    at: bounds[k],
                    cancel: cancel.clone(),
                };
                let mut solutions = engine.solutions_with(&prepared, &cancel);
                let written = write_solutions(&mut sink, format, &mut solutions, false);
                assert!(
                    matches!(written, Err(WriteError::Query(Error::Cancelled))),
                    "{format:?} after {k} rows: {written:?}"
                );
                assert!(
                    sink.out == full[..bounds[k]],
                    "{format:?}: out holds the header and {k} rows, nothing else"
                );
            }
        }
        // Small rows wait in the buffer: an error after row k still
        // leaves the header and k rows in `out`.
        let small = document("b");
        for format in [Format::Json, Format::Csv, Format::Tsv] {
            let full = bytes_of(&engine_over(&small), format, query).into_bytes();
            let bounds = boundaries(format, &full);
            for k in 0..=3 {
                let inner = sharded_store_from_reader(
                    small.as_bytes(),
                    1,
                    ShardBy::Subject,
                    ShardBackend::Mem,
                )
                .expect("valid N-Triples");
                let store = FaultAfter {
                    inner,
                    checks: AtomicUsize::new(0),
                    after: k,
                };
                let engine = QueryEngine::with_options(
                    store.into_shared(),
                    QueryOptions::new().parallelism(1),
                );
                let prepared = engine.prepare(query).unwrap();
                let mut out = Vec::new();
                let mut solutions = engine.solutions(&prepared);
                let written = write_solutions(&mut out, format, &mut solutions, false);
                assert!(
                    matches!(written, Err(WriteError::Query(Error::Store(_)))),
                    "{format:?} after {k} rows: {written:?}"
                );
                assert!(
                    out == full[..bounds[k]],
                    "{format:?}: out holds the header and {k} rows, nothing else"
                );
            }
        }
    }

    #[test]
    fn media_type_resolution() {
        assert_eq!(
            Format::from_media_type("application/sparql-results+json"),
            Some(Format::Json)
        );
        assert_eq!(Format::from_media_type("TEXT/CSV"), Some(Format::Csv));
        assert_eq!(
            Format::from_media_type(" text/tab-separated-values "),
            Some(Format::Tsv)
        );
        assert_eq!(Format::from_media_type("application/xml"), None);
        for f in [Format::Json, Format::Csv, Format::Tsv] {
            assert_eq!(Format::from_media_type(f.label()), Some(f));
        }
    }
}
