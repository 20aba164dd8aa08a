//! The HTTP side of the multi-user driver: a minimal, std-only SPARQL
//! Protocol **client** plus the [`HttpTransport`] implementation of
//! [`WorkTransport`], so `sp2b multiuser --endpoint http://…` drives
//! real sockets — connection setup, request framing, response parsing,
//! result-set transfer — through exactly the same histogram/report
//! pipeline as the in-process driver.
//!
//! The client speaks just enough HTTP/1.1 for the endpoint protocol:
//! `POST` with an `application/sparql-query` body, keep-alive connection
//! reuse (with one reconnect on a stale pooled connection),
//! `Content-Length` and chunked response bodies, and per-request socket
//! timeouts mapped to the driver's timeout accounting.
//!
//! Result counting ([`count_result_rows`]) understands the three wire
//! formats the server produces — TSV/CSV row counting (quote-aware for
//! CSV), `text/boolean` ASK bodies, and SPARQL JSON (`bindings` array /
//! `boolean` member) — so transported counts are comparable with
//! in-process [`sp2b_sparql::QueryEngine::count`] values.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::multiuser::{ExecOutcome, SessionSetup, WorkItem, WorkSession, WorkTransport};

/// A parsed `http://host:port/path` endpoint URL.
#[derive(Debug, Clone)]
pub struct Endpoint {
    /// Host (name or literal address).
    pub host: String,
    /// Port (default 80).
    pub port: u16,
    /// Request path (default `/sparql`).
    pub path: String,
}

impl Endpoint {
    /// Parses an endpoint URL. Only `http://` is supported (the server
    /// is plaintext HTTP); a missing path defaults to `/sparql`.
    pub fn parse(url: &str) -> Result<Endpoint, String> {
        let rest = url
            .trim()
            .strip_prefix("http://")
            .ok_or_else(|| format!("endpoint '{url}' must be an http:// URL"))?;
        let (authority, path) = match rest.split_once('/') {
            Some((a, p)) => (a, format!("/{p}")),
            None => (rest, "/sparql".to_owned()),
        };
        if authority.is_empty() {
            return Err(format!("endpoint '{url}' is missing a host"));
        }
        let (host, port) = if let Some(rest) = authority.strip_prefix('[') {
            // Bracketed IPv6 literal: `[::1]:8088` or `[::1]`.
            let (host, after) = rest
                .split_once(']')
                .ok_or_else(|| format!("unclosed '[' in endpoint '{url}'"))?;
            let port = match after.strip_prefix(':') {
                Some(p) => p
                    .parse::<u16>()
                    .map_err(|_| format!("invalid port in endpoint '{url}'"))?,
                None if after.is_empty() => 80,
                None => return Err(format!("malformed authority in endpoint '{url}'")),
            };
            (host.to_owned(), port)
        } else if authority.matches(':').count() > 1 {
            // An unbracketed IPv6 literal is ambiguous (`::1` would split
            // into host `:` and "port" `1`): require brackets.
            return Err(format!(
                "IPv6 endpoint hosts must be bracketed, e.g. http://[::1]:8088/sparql (got '{url}')"
            ));
        } else {
            match authority.rsplit_once(':') {
                Some((h, p)) => (
                    h.to_owned(),
                    p.parse::<u16>()
                        .map_err(|_| format!("invalid port in endpoint '{url}'"))?,
                ),
                None => (authority.to_owned(), 80),
            }
        };
        if host.is_empty() {
            return Err(format!("endpoint '{url}' is missing a host"));
        }
        Ok(Endpoint { host, port, path })
    }

    /// The canonical URL form (IPv6 hosts re-bracketed).
    pub fn url(&self) -> String {
        if self.host.contains(':') {
            format!("http://[{}]:{}{}", self.host, self.port, self.path)
        } else {
            format!("http://{}:{}{}", self.host, self.port, self.path)
        }
    }
}

/// A parsed HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers, lower-cased names.
    pub headers: Vec<(String, String)>,
    /// The (de-chunked) body.
    pub body: Vec<u8>,
    /// Whether the connection may be reused afterwards.
    pub keep_alive: bool,
}

impl HttpResponse {
    /// First header value by name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == &name.to_ascii_lowercase())
            .map(|(_, v)| v.as_str())
    }

    /// The media type (parameters stripped), lower-cased.
    pub fn content_type(&self) -> String {
        self.header("content-type")
            .map(|ct| {
                ct.split(';')
                    .next()
                    .unwrap_or(ct)
                    .trim()
                    .to_ascii_lowercase()
            })
            .unwrap_or_default()
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One keep-alive connection to an endpoint.
pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// Connects (bounded by `timeout`).
    pub fn connect(endpoint: &Endpoint, timeout: Duration) -> io::Result<Connection> {
        let addr = (endpoint.host.as_str(), endpoint.port)
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "endpoint did not resolve"))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::with_capacity(16 * 1024, stream.try_clone()?);
        Ok(Connection {
            writer: stream,
            reader,
        })
    }

    /// Sends one request and reads the full response. `timeout` bounds
    /// every read/write on the socket.
    pub fn request(
        &mut self,
        endpoint: &Endpoint,
        method: &str,
        target: &str,
        accept: &str,
        body: Option<(&str, &[u8])>,
        timeout: Duration,
    ) -> io::Result<HttpResponse> {
        let timeout = timeout.max(Duration::from_millis(1));
        self.writer.set_write_timeout(Some(timeout))?;
        self.writer.set_read_timeout(Some(timeout))?;
        let mut head = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}:{}\r\nAccept: {accept}\r\nUser-Agent: sp2b-multiuser\r\n",
            endpoint.host, endpoint.port
        );
        if let Some((content_type, payload)) = body {
            head.push_str(&format!(
                "Content-Type: {content_type}\r\nContent-Length: {}\r\n",
                payload.len()
            ));
        }
        head.push_str("\r\n");
        self.writer.write_all(head.as_bytes())?;
        if let Some((_, payload)) = body {
            self.writer.write_all(payload)?;
        }
        self.writer.flush()?;
        self.read_response()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = Vec::new();
        let n = self.reader.read_until(b'\n', &mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        while line.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
            line.pop();
        }
        String::from_utf8(line)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))
    }

    fn read_response(&mut self) -> io::Result<HttpResponse> {
        let status_line = self.read_line()?;
        let mut parts = status_line.split_whitespace();
        let version = parts.next().unwrap_or("");
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
            }
        }
        let find = |name: &str| {
            headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        };
        let chunked = find("transfer-encoding").is_some_and(|t| t.eq_ignore_ascii_case("chunked"));
        let mut body = Vec::new();
        let mut length_delimited = true;
        if chunked {
            loop {
                let size_line = self.read_line()?;
                let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "malformed chunk size")
                })?;
                if size == 0 {
                    // Trailer section: read through the blank line.
                    loop {
                        if self.read_line()?.is_empty() {
                            break;
                        }
                    }
                    break;
                }
                let start = body.len();
                body.resize(start + size, 0);
                self.reader.read_exact(&mut body[start..])?;
                let mut crlf = [0u8; 2];
                self.reader.read_exact(&mut crlf)?;
            }
        } else if let Some(n) = find("content-length") {
            let n: usize = n
                .trim()
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length"))?;
            body.resize(n, 0);
            self.reader.read_exact(&mut body)?;
        } else {
            // Close-delimited (HTTP/1.0-style streaming).
            self.reader.read_to_end(&mut body)?;
            length_delimited = false;
        }
        let keep_alive = length_delimited
            && version == "HTTP/1.1"
            && !find("connection").is_some_and(|c| c.eq_ignore_ascii_case("close"));
        Ok(HttpResponse {
            status,
            headers,
            body,
            keep_alive,
        })
    }
}

/// Issues one query over a fresh connection (tests, probes).
pub fn query_once(
    endpoint: &Endpoint,
    query: &str,
    accept: &str,
    timeout: Duration,
) -> io::Result<HttpResponse> {
    let mut conn = Connection::connect(endpoint, timeout)?;
    conn.request(
        endpoint,
        "POST",
        &endpoint.path,
        accept,
        Some(("application/sparql-query", query.as_bytes())),
        timeout,
    )
}

/// An **order-insensitive** 64-bit result checksum: every data row
/// hashes independently (Fx over its TSV-encoded bytes) and rows
/// combine by wrapping addition, so any permutation of the same row
/// multiset — parallel morsel order, shard order, network reordering —
/// folds to the same value, while a changed, missing or duplicated row
/// changes it. This is what lets `sp2b multiuser --endpoint` assert
/// *correctness* (same rows), not just cardinality, against in-process
/// runs: both sides fold the same TSV serialization
/// ([`sp2b_sparql::results::write_solutions`]) — the server on the wire, the
/// in-process transport through [`ChecksumWriter`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResultChecksum {
    fold: u64,
}

impl ResultChecksum {
    /// An empty checksum (the value of a zero-row result).
    pub fn new() -> Self {
        ResultChecksum::default()
    }

    /// Folds one data row (its line bytes, without the terminator).
    pub fn add_row(&mut self, line: &[u8]) {
        use std::hash::Hasher as _;
        let mut h = sp2b_store::hash::FxHasher::default();
        h.write(line);
        self.fold = self.fold.wrapping_add(h.finish());
    }

    /// The folded value.
    pub fn value(&self) -> u64 {
        self.fold
    }
}

/// Folds a response body's checksum by media type: every TSV line after
/// the header (CR stripped) is one row; a `text/boolean` body is its
/// single `true`/`false` line. `None` for media types the checksum is
/// not defined over (JSON/CSV runs still compare by count).
pub fn body_checksum(content_type: &str, body: &[u8]) -> Option<u64> {
    let skip_header = match content_type {
        "text/tab-separated-values" => true,
        "text/boolean" => false,
        _ => return None,
    };
    let mut checksum = ResultChecksum::new();
    let mut lines = body.split(|&b| b == b'\n').peekable();
    let mut first = true;
    while let Some(line) = lines.next() {
        // A trailing newline leaves one empty final fragment — not a row.
        if lines.peek().is_none() && line.is_empty() {
            break;
        }
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if first && skip_header {
            first = false;
            continue;
        }
        first = false;
        checksum.add_row(line);
    }
    Some(checksum.value())
}

/// An [`io::Write`] sink folding a streamed TSV (or `text/boolean`)
/// serialization into a [`ResultChecksum`] line by line — the
/// in-process side of the checksum comparison, fed by
/// [`sp2b_sparql::results::write_solutions`] so no result ever
/// materializes.
pub struct ChecksumWriter {
    checksum: ResultChecksum,
    line: Vec<u8>,
    skip_lines: usize,
}

impl ChecksumWriter {
    /// A sink for a SELECT TSV stream (`skip_header = true`: the `?var`
    /// header line is not a row) or an ASK boolean line
    /// (`skip_header = false`).
    pub fn new(skip_header: bool) -> Self {
        ChecksumWriter {
            checksum: ResultChecksum::new(),
            line: Vec::new(),
            skip_lines: usize::from(skip_header),
        }
    }

    fn complete_line(&mut self) {
        if self.line.last() == Some(&b'\r') {
            self.line.pop();
        }
        if self.skip_lines > 0 {
            self.skip_lines -= 1;
        } else {
            self.checksum.add_row(&self.line);
        }
        self.line.clear();
    }

    /// Finishes the fold (flushing a final unterminated line) and
    /// returns the checksum.
    pub fn finish(mut self) -> u64 {
        if !self.line.is_empty() {
            self.complete_line();
        }
        self.checksum.value()
    }
}

impl Write for ChecksumWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            if b == b'\n' {
                self.complete_line();
            } else {
                self.line.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Counts result rows in a response body, by media type: data rows for
/// CSV/TSV (header excluded; CSV counting is quote-aware), the
/// `bindings` array length (or `boolean` as 1/0) for SPARQL JSON, and
/// `true`/`false` for `text/boolean` — the value that matches
/// `QueryEngine::count` for the same query.
pub fn count_result_rows(content_type: &str, body: &[u8]) -> Result<u64, String> {
    match content_type {
        "text/boolean" => Ok(u64::from(
            std::str::from_utf8(body).unwrap_or("").trim() == "true",
        )),
        "text/csv" => Ok(count_csv_records(body).saturating_sub(1)),
        "text/tab-separated-values" => {
            let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
            Ok((text.lines().count() as u64).saturating_sub(1))
        }
        "application/sparql-results+json" => count_json_results(body),
        other => Err(format!("cannot count rows of content type '{other}'")),
    }
}

/// Number of CSV records (quote-aware: newlines inside quoted fields do
/// not terminate a record).
fn count_csv_records(body: &[u8]) -> u64 {
    let mut records = 0u64;
    let mut in_quotes = false;
    let mut line_has_bytes = false;
    for &b in body {
        match b {
            b'"' => {
                in_quotes = !in_quotes;
                line_has_bytes = true;
            }
            b'\n' if !in_quotes => {
                records += 1;
                line_has_bytes = false;
            }
            b'\r' => {}
            _ => line_has_bytes = true,
        }
    }
    records + u64::from(line_has_bytes)
}

/// Finds the value position of a `"key":` *member* (the quoted key
/// followed, after optional whitespace, by a colon), returning the
/// text after the colon. A JSON string whose entire value equals the
/// key is followed by `,`/`}`/`]`, never `:`, so data cannot spoof a
/// member; a quote *inside* a string value is escaped as `\"`, so the
/// quoted needle cannot start mid-string either.
fn find_member<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let mut search = text;
    while let Some(pos) = search.find(&needle) {
        let rest = search[pos + needle.len()..].trim_start();
        if let Some(value) = rest.strip_prefix(':') {
            return Some(value);
        }
        search = &search[pos + needle.len()..];
    }
    None
}

/// Counts a SPARQL JSON result: the number of objects directly inside
/// the `results.bindings` array, or (for ASK) the `boolean` member as
/// 1/0. A tiny string-and-depth-aware scan — not a JSON parser, but
/// exact for any spec-shaped result document, including results whose
/// *data* (or variable names) contain the words `bindings`/`boolean`:
/// SELECT documents are recognized by the `bindings` member first, so
/// the boolean path only ever runs on ASK documents, which have no
/// variables or data.
fn count_json_results(body: &[u8]) -> Result<u64, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let Some(after) = find_member(text, "bindings") else {
        let Some(rest) = find_member(text, "boolean") else {
            return Err("response has neither bindings nor boolean".into());
        };
        return match rest.trim_start() {
            r if r.starts_with("true") => Ok(1),
            r if r.starts_with("false") => Ok(0),
            _ => Err("malformed boolean result".into()),
        };
    };
    let Some(bracket) = after.find('[') else {
        return Err("bindings is not an array".into());
    };
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    let mut rows = 0u64;
    for c in after[bracket + 1..].chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    rows += 1;
                }
                depth += 1;
            }
            '}' => depth -= 1,
            '[' => depth += 1,
            ']' => {
                if depth == 0 {
                    return Ok(rows);
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    Err("unterminated bindings array".into())
}

// ---------------------------------------------------------------------------
// The HTTP transport
// ---------------------------------------------------------------------------

/// Extra socket-read grace past the per-query deadline, so a server-side
/// `408` (whose timeout the operator configures separately) can still
/// arrive and be accounted as a timeout rather than a transport error.
const READ_GRACE: Duration = Duration::from_millis(500);

/// [`WorkTransport`] over real sockets: every client session posts its
/// queries to the endpoint (`Accept: text/tab-separated-values`, the
/// cheapest format to count) over a kept-alive connection.
pub struct HttpTransport {
    endpoint: Endpoint,
    connect_timeout: Duration,
}

impl HttpTransport {
    /// A transport for `endpoint` (see [`Endpoint::parse`]).
    pub fn new(endpoint: Endpoint) -> HttpTransport {
        HttpTransport {
            endpoint,
            connect_timeout: Duration::from_secs(5),
        }
    }

    /// The endpoint driven.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }
}

impl WorkTransport for HttpTransport {
    fn open(&self, _client: usize, mix: &[WorkItem]) -> SessionSetup {
        SessionSetup {
            labels: mix.iter().map(|item| item.label.clone()).collect(),
            session: Box::new(HttpSession {
                endpoint: self.endpoint.clone(),
                connect_timeout: self.connect_timeout,
                texts: mix.iter().map(|item| item.text.clone()).collect(),
                connection: None,
            }),
        }
    }
}

struct HttpSession {
    endpoint: Endpoint,
    connect_timeout: Duration,
    texts: Vec<String>,
    connection: Option<Connection>,
}

impl HttpSession {
    fn request(&mut self, slot: usize, timeout: Duration) -> io::Result<HttpResponse> {
        let reused = self.connection.is_some();
        let mut conn = match self.connection.take() {
            Some(c) => c,
            None => Connection::connect(&self.endpoint, self.connect_timeout)?,
        };
        let result = conn.request(
            &self.endpoint,
            "POST",
            &self.endpoint.path,
            "text/tab-separated-values",
            Some(("application/sparql-query", self.texts[slot].as_bytes())),
            timeout,
        );
        match result {
            Ok(response) => {
                if response.keep_alive {
                    self.connection = Some(conn);
                }
                Ok(response)
            }
            Err(e) if reused && !is_timeout(&e) => {
                // The pooled connection went stale (server closed it
                // between requests): retry once on a fresh one.
                let mut conn = Connection::connect(&self.endpoint, self.connect_timeout)?;
                let response = conn.request(
                    &self.endpoint,
                    "POST",
                    &self.endpoint.path,
                    "text/tab-separated-values",
                    Some(("application/sparql-query", self.texts[slot].as_bytes())),
                    timeout,
                )?;
                if response.keep_alive {
                    self.connection = Some(conn);
                }
                Ok(response)
            }
            Err(e) => Err(e),
        }
    }
}

impl WorkSession for HttpSession {
    fn execute(&mut self, slot: usize, stop_at: Instant) -> ExecOutcome {
        let remaining = stop_at.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return ExecOutcome::TimedOut;
        }
        match self.request(slot, remaining + READ_GRACE) {
            Ok(response) => match response.status {
                200 => {
                    let content_type = response.content_type();
                    match count_result_rows(&content_type, &response.body) {
                        Ok(rows) => ExecOutcome::Completed {
                            rows,
                            // TSV bodies carry the order-insensitive
                            // checksum for free — count *and* content
                            // stability get asserted.
                            checksum: body_checksum(&content_type, &response.body),
                        },
                        Err(_) => ExecOutcome::Failed,
                    }
                }
                408 => ExecOutcome::TimedOut,
                _ => ExecOutcome::Failed,
            },
            Err(e) if is_timeout(&e) => {
                // The socket timed out: the connection state is unknown,
                // drop it.
                self.connection = None;
                ExecOutcome::TimedOut
            }
            Err(_) => {
                self.connection = None;
                ExecOutcome::Failed
            }
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_urls_parse() {
        let ep = Endpoint::parse("http://127.0.0.1:8088/sparql").unwrap();
        assert_eq!(ep.host, "127.0.0.1");
        assert_eq!(ep.port, 8088);
        assert_eq!(ep.path, "/sparql");
        assert_eq!(ep.url(), "http://127.0.0.1:8088/sparql");

        let ep = Endpoint::parse("http://example.org").unwrap();
        assert_eq!((ep.port, ep.path.as_str()), (80, "/sparql"));

        assert!(Endpoint::parse("https://x/").is_err());
        assert!(Endpoint::parse("http://").is_err());
        assert!(Endpoint::parse("http://h:port/x").is_err());
    }

    #[test]
    fn ipv6_endpoints_require_and_honour_brackets() {
        let ep = Endpoint::parse("http://[::1]:8088/sparql").unwrap();
        assert_eq!(ep.host, "::1");
        assert_eq!(ep.port, 8088);
        assert_eq!(ep.url(), "http://[::1]:8088/sparql");
        let ep = Endpoint::parse("http://[2001:db8::2]/q").unwrap();
        assert_eq!(
            (ep.host.as_str(), ep.port, ep.path.as_str()),
            ("2001:db8::2", 80, "/q")
        );
        // Unbracketed IPv6 is ambiguous and rejected, not mis-split.
        assert!(Endpoint::parse("http://::1/sparql").is_err());
        assert!(Endpoint::parse("http://[::1/sparql").is_err());
        assert!(Endpoint::parse("http://[::1]junk/sparql").is_err());
    }

    #[test]
    fn csv_and_tsv_row_counting() {
        let csv = b"s,v\r\na,1\r\n\"multi\nline\",2\r\n";
        assert_eq!(count_result_rows("text/csv", csv).unwrap(), 2);
        assert_eq!(count_result_rows("text/csv", b"s,v\r\n").unwrap(), 0);
        let tsv = b"?s\t?v\n<a>\t\"1\"\n<b>\t\"2\"\n<c>\t\"3\"\n";
        assert_eq!(
            count_result_rows("text/tab-separated-values", tsv).unwrap(),
            3
        );
        assert_eq!(count_result_rows("text/boolean", b"true\n").unwrap(), 1);
        assert_eq!(count_result_rows("text/boolean", b"false\n").unwrap(), 0);
        assert!(count_result_rows("application/xml", b"").is_err());
    }

    #[test]
    fn checksum_is_order_insensitive_but_content_sensitive() {
        let a = b"?s\t?v\n<a>\t\"1\"\n<b>\t\"2\"\n";
        let b = b"?s\t?v\n<b>\t\"2\"\n<a>\t\"1\"\n";
        let c = b"?s\t?v\n<a>\t\"1\"\n<b>\t\"3\"\n";
        let ct = "text/tab-separated-values";
        assert_eq!(
            body_checksum(ct, a),
            body_checksum(ct, b),
            "order must not matter"
        );
        assert_ne!(
            body_checksum(ct, a),
            body_checksum(ct, c),
            "content must matter"
        );
        // A duplicated row changes the fold (multiset, not set).
        let dup = b"?s\t?v\n<a>\t\"1\"\n<a>\t\"1\"\n<b>\t\"2\"\n";
        assert_ne!(body_checksum(ct, a), body_checksum(ct, dup));
        // CRLF line endings fold identically to bare LF.
        let crlf = b"?s\t?v\r\n<a>\t\"1\"\r\n<b>\t\"2\"\r\n";
        assert_eq!(body_checksum(ct, a), body_checksum(ct, crlf));
        // Unsupported media types have no checksum; boolean bodies do.
        assert_eq!(body_checksum("text/csv", a), None);
        assert!(body_checksum("text/boolean", b"true\n").is_some());
        assert_ne!(
            body_checksum("text/boolean", b"true\n"),
            body_checksum("text/boolean", b"false\n")
        );
    }

    #[test]
    fn checksum_writer_matches_body_checksum() {
        let body: &[u8] = b"?s\t?v\n<a>\t\"1\"\n\n<b>\t\"2\"\n";
        // Feed the streamed sink in awkward split writes.
        let mut w = ChecksumWriter::new(true);
        for chunk in [&body[..3], &body[3..10], &body[10..]] {
            w.write_all(chunk).unwrap();
        }
        assert_eq!(
            Some(w.finish()),
            body_checksum("text/tab-separated-values", body),
            "streamed fold must equal the whole-body fold (incl. the empty row line)"
        );
        // ASK: no header to skip.
        let mut w = ChecksumWriter::new(false);
        w.write_all(b"true\n").unwrap();
        assert_eq!(Some(w.finish()), body_checksum("text/boolean", b"true\n"));
        // A final unterminated line still counts as a row.
        let mut w = ChecksumWriter::new(true);
        w.write_all(b"?s\n<a>").unwrap();
        assert_eq!(
            Some(w.finish()),
            body_checksum("text/tab-separated-values", b"?s\n<a>")
        );
    }

    #[test]
    fn json_result_counting() {
        let json = br#"{"head":{"vars":["s"]},"results":{"bindings":[
            {"s":{"type":"uri","value":"http://x/a"}},
            {"s":{"type":"literal","value":"tricky ] } [ { \" {"}},
            {"s":{"type":"bnode","value":"b0"}}]}}"#;
        assert_eq!(
            count_result_rows("application/sparql-results+json", json).unwrap(),
            3
        );
        let empty = br#"{"head":{"vars":[]},"results":{"bindings":[]}}"#;
        assert_eq!(
            count_result_rows("application/sparql-results+json", empty).unwrap(),
            0
        );
        let ask = br#"{"head":{},"boolean":true}"#;
        assert_eq!(
            count_result_rows("application/sparql-results+json", ask).unwrap(),
            1
        );
        let no = br#"{"head":{},"boolean":false}"#;
        assert_eq!(
            count_result_rows("application/sparql-results+json", no).unwrap(),
            0
        );
    }

    #[test]
    fn json_counting_survives_keyword_shaped_data_and_variable_names() {
        // A literal whose whole value is `boolean` is a string *value*
        // (followed by `}`), not a member — counting must not take the
        // ASK path or error.
        let tricky = br#"{"head":{"vars":["s"]},"results":{"bindings":[
            {"s":{"type":"literal","value":"boolean"}},
            {"s":{"type":"literal","value":"bindings"}}]}}"#;
        assert_eq!(
            count_result_rows("application/sparql-results+json", tricky).unwrap(),
            2
        );
        // Variables literally named `bindings`/`boolean`: the first
        // *member* occurrence of "bindings" is the real results array
        // (head.vars holds them as plain array elements, no colon).
        let vars = br#"{"head":{"vars":["bindings","boolean"]},"results":{"bindings":[
            {"bindings":{"type":"uri","value":"http://x/a"},"boolean":{"type":"uri","value":"http://x/b"}}]}}"#;
        assert_eq!(
            count_result_rows("application/sparql-results+json", vars).unwrap(),
            1
        );
    }
}
