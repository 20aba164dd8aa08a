//! Streaming SELECT/ASK result serialization — the wire formats of the
//! SPARQL 1.1 Protocol, shared by the HTTP endpoint (`sp2b_server`) and
//! the CLI's `sp2b query --format …` output.
//!
//! All three writers ([`write_json`], [`write_csv`], [`write_tsv`] —
//! dispatched by [`write_solutions`]) consume a [`Solutions`] stream row
//! by row and emit directly into an [`io::Write`], so a SELECT result is
//! **never materialized** on the serializing side: memory stays bounded
//! by one row regardless of cardinality, and the first bytes hit the
//! wire before the last row was computed.
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

use crate::api::{Error, Solution, Solutions};

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

/// Serializes a whole solution stream in `format`, returning the number
/// of result rows written (ASK: 1 for `true`, 0 for `false` — the value
/// that agrees with `QueryEngine::count`).
///
/// `ask` must be the prepared query's ASK-ness: an ASK stream yields
/// zero or one *empty* solution, which the writers turn into the
/// boolean forms described on [`Format`].
pub fn write_solutions(
    out: &mut dyn Write,
    format: Format,
    solutions: &mut Solutions<'_>,
    ask: bool,
) -> Result<u64, WriteError> {
    match format {
        Format::Json => write_json(out, solutions, ask),
        Format::Csv => write_csv(out, solutions, ask),
        Format::Tsv => write_tsv(out, solutions, ask),
    }
}

/// Streams SPARQL 1.1 JSON results. See [`write_solutions`].
pub fn write_json(
    out: &mut dyn Write,
    solutions: &mut Solutions<'_>,
    ask: bool,
) -> Result<u64, WriteError> {
    if ask {
        let yes = next_ask(solutions)?;
        write!(out, "{{\"head\":{{}},\"boolean\":{yes}}}")?;
        return Ok(u64::from(yes));
    }
    let variables: Vec<String> = solutions.variables().to_vec();
    out.write_all(b"{\"head\":{\"vars\":[")?;
    for (i, v) in variables.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write_json_string(out, v)?;
    }
    out.write_all(b"]},\"results\":{\"bindings\":[")?;
    let mut rows = 0u64;
    for solution in solutions.by_ref() {
        let solution = solution.map_err(WriteError::Query)?;
        if rows > 0 {
            out.write_all(b",")?;
        }
        out.write_all(b"{")?;
        let mut first = true;
        for (i, var) in variables.iter().enumerate() {
            // Unbound: omitted from the binding object.
            let written = solution.with_term(i, |term| {
                if !first {
                    out.write_all(b",")?;
                }
                write_json_string(out, var)?;
                out.write_all(b":")?;
                write_json_term(out, term)
            });
            if let Some(written) = written {
                written?;
                first = false;
            }
        }
        out.write_all(b"}")?;
        rows += 1;
    }
    out.write_all(b"]}}")?;
    Ok(rows)
}

/// Streams SPARQL 1.1 CSV results. See [`write_solutions`].
pub fn write_csv(
    out: &mut dyn Write,
    solutions: &mut Solutions<'_>,
    ask: bool,
) -> Result<u64, WriteError> {
    if ask {
        let yes = next_ask(solutions)?;
        writeln!(out, "{yes}")?;
        return Ok(u64::from(yes));
    }
    let width = solutions.variables().len();
    for (i, v) in solutions.variables().iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write_csv_field(out, v)?;
    }
    out.write_all(b"\r\n")?;
    stream_rows(solutions, |solution| {
        for i in 0..width {
            if i > 0 {
                out.write_all(b",")?;
            }
            solution
                .with_term(i, |term| write_csv_term(out, term))
                .transpose()?;
        }
        out.write_all(b"\r\n")?;
        Ok(())
    })
}

/// Streams SPARQL 1.1 TSV results. See [`write_solutions`].
pub fn write_tsv(
    out: &mut dyn Write,
    solutions: &mut Solutions<'_>,
    ask: bool,
) -> Result<u64, WriteError> {
    if ask {
        let yes = next_ask(solutions)?;
        writeln!(out, "{yes}")?;
        return Ok(u64::from(yes));
    }
    let width = solutions.variables().len();
    let header: Vec<String> = solutions
        .variables()
        .iter()
        .map(|v| format!("?{v}"))
        .collect();
    writeln!(out, "{}", header.join("\t"))?;
    stream_rows(solutions, |solution| {
        for i in 0..width {
            if i > 0 {
                out.write_all(b"\t")?;
            }
            solution
                .with_term(i, |term| write_tsv_term(out, term))
                .transpose()?;
        }
        out.write_all(b"\n")?;
        Ok(())
    })
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

/// Drains the stream through `row`, counting rows and converting stream
/// errors.
fn stream_rows(
    solutions: &mut Solutions<'_>,
    mut row: impl FnMut(&Solution<'_>) -> io::Result<()>,
) -> Result<u64, WriteError> {
    let mut rows = 0u64;
    for solution in solutions {
        let solution = solution.map_err(WriteError::Query)?;
        row(&solution)?;
        rows += 1;
    }
    Ok(rows)
}

/// Resolves an ASK stream: one (empty) solution means `true`.
fn next_ask(solutions: &mut Solutions<'_>) -> Result<bool, WriteError> {
    match solutions.next() {
        None => Ok(false),
        Some(Ok(_)) => Ok(true),
        Some(Err(e)) => Err(WriteError::Query(e)),
    }
}

/// The CSV lexical form: IRIs bare, blanks `_:label`, literals their
/// lexical value (datatype/language dropped, per the CSV results spec).
fn write_csv_term(out: &mut dyn Write, term: TermRef<'_>) -> io::Result<()> {
    match term {
        TermRef::Iri(iri) => write_csv_field(out, iri),
        TermRef::Blank(label) => write_csv_field(out, &format!("_:{label}")),
        TermRef::Literal(l) => write_csv_field(out, l.lexical),
    }
}

fn write_csv_field(out: &mut dyn Write, s: &str) -> io::Result<()> {
    if s.contains(['"', ',', '\n', '\r']) {
        out.write_all(b"\"")?;
        out.write_all(s.replace('"', "\"\"").as_bytes())?;
        out.write_all(b"\"")
    } else {
        out.write_all(s.as_bytes())
    }
}

/// TSV term encoding: Turtle-ish forms with the tab/newline-sensitive
/// characters escaped so one row is always one line.
fn write_tsv_term(out: &mut dyn Write, term: TermRef<'_>) -> io::Result<()> {
    match term {
        TermRef::Iri(iri) => write!(out, "<{iri}>"),
        TermRef::Blank(label) => write!(out, "_:{label}"),
        TermRef::Literal(l) => {
            write!(out, "\"{}\"", escape_tsv(l.lexical))?;
            if let Some(lang) = l.language {
                write!(out, "@{lang}")
            } else if let Some(dt) = l.datatype {
                write!(out, "^^<{dt}>")
            } else {
                Ok(())
            }
        }
    }
}

fn escape_tsv(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

/// JSON string literal with the mandatory escapes. This is the hottest
/// loop of the HTTP serving path (every variable name, IRI and literal
/// of every JSON row passes through), so contiguous runs of unescaped
/// bytes are written as single slices rather than per-character — the
/// only bytes needing escapes are ASCII, so byte-wise scanning is safe
/// on UTF-8 input.
fn write_json_string(out: &mut dyn Write, s: &str) -> io::Result<()> {
    out.write_all(b"\"")?;
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x00..=0x1f => b"",
            _ => continue,
        };
        out.write_all(&bytes[start..i])?;
        if escape.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_all(escape)?;
        }
        start = i + 1;
    }
    out.write_all(&bytes[start..])?;
    out.write_all(b"\"")
}

/// One SPARQL-JSON term object.
fn write_json_term(out: &mut dyn Write, term: TermRef<'_>) -> io::Result<()> {
    match term {
        TermRef::Iri(iri) => {
            out.write_all(b"{\"type\":\"uri\",\"value\":")?;
            write_json_string(out, iri)?;
        }
        TermRef::Blank(label) => {
            out.write_all(b"{\"type\":\"bnode\",\"value\":")?;
            write_json_string(out, label)?;
        }
        TermRef::Literal(l) => {
            out.write_all(b"{\"type\":\"literal\",\"value\":")?;
            write_json_string(out, l.lexical)?;
            if let Some(lang) = l.language {
                out.write_all(b",\"xml:lang\":")?;
                write_json_string(out, lang)?;
            } else if let Some(dt) = l.datatype {
                out.write_all(b",\"datatype\":")?;
                write_json_string(out, dt)?;
            }
        }
    }
    out.write_all(b"}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{QueryEngine, QueryOptions};
    use crate::testing::load;
    use sp2b_rdf::{Graph, Iri, Literal, Subject, Term};
    use sp2b_store::{ShardBackend, TripleStore};

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
