//! N-Triples serialization and parsing, over borrowed triples.
//!
//! **Writing.** [`write_triple_ref`] composes one line per [`TripleRef`]
//! in a buffer its caller reuses and hands it to the writer in one
//! `write_all`; [`write_triple`] and [`write_document`] are its
//! owned-triple wrappers. The generator streams its documents through
//! it.
//!
//! **Parsing.** [`Parser::next_ref`] reads a line into a reused buffer,
//! checks it is UTF-8 once, and lends a [`TripleRef`] out of it: IRIs,
//! blank-node labels and literals without escapes are slices of the
//! line, and only a literal with escapes is unescaped, into one reused
//! `String`. The delimiters an IRI or a literal ends at (`>`, `"`, `\`)
//! are found eight bytes at a time. The owned forms — the `Iterator` of
//! [`Triple`]s and [`parse_line`] — are `next_ref` plus
//! [`TripleRef::to_triple`]; the store's load route interns the borrowed
//! strings, so it allocates per new term, not per line.
//!
//! Both ends implement the subset of N-Triples the benchmark data uses —
//! IRIs, blank nodes, plain/typed/language-tagged literals, `.`
//! terminators, `#` comments — plus the standard string escapes, so
//! foreign N-Triples documents load too.

use std::fmt;
use std::io::{self, BufRead, Write};

use crate::term::{LiteralRef, TermRef};
use crate::triple::{Triple, TripleRef};

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Appends a string literal's lexical form with N-Triples escaping.
fn push_escaped(line: &mut Vec<u8>, s: &str) {
    // Unbroken runs of safe characters are copied in one call.
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            _ => continue,
        };
        line.extend_from_slice(&bytes[start..i]);
        line.extend_from_slice(esc);
        start = i + 1;
    }
    line.extend_from_slice(&bytes[start..]);
}

/// Appends `<iri>`.
fn push_iri(line: &mut Vec<u8>, iri: &str) {
    line.push(b'<');
    line.extend_from_slice(iri.as_bytes());
    line.push(b'>');
}

/// Appends one term in N-Triples syntax.
fn push_term(line: &mut Vec<u8>, term: TermRef<'_>) {
    match term {
        TermRef::Iri(iri) => push_iri(line, iri),
        TermRef::Blank(label) => {
            line.extend_from_slice(b"_:");
            line.extend_from_slice(label.as_bytes());
        }
        TermRef::Literal(l) => {
            line.push(b'"');
            push_escaped(line, l.lexical);
            line.push(b'"');
            if let Some(lang) = l.language {
                line.push(b'@');
                line.extend_from_slice(lang.as_bytes());
            } else if let Some(dt) = l.datatype {
                line.extend_from_slice(b"^^");
                push_iri(line, dt);
            }
        }
    }
}

/// Writes one triple as a complete N-Triples line (including `" .\n"`)
/// with one `write_all`: the line is composed in `line`, a buffer the
/// caller keeps from line to line (it is cleared first), so writing a
/// document allocates nothing per line. The one N-Triples writer; the
/// owned forms wrap it.
pub fn write_triple_ref(
    out: &mut impl Write,
    line: &mut Vec<u8>,
    t: TripleRef<'_>,
) -> io::Result<()> {
    line.clear();
    push_term(line, t.subject);
    line.push(b' ');
    push_iri(line, t.predicate);
    line.push(b' ');
    push_term(line, t.object);
    line.extend_from_slice(b" .\n");
    out.write_all(line)
}

/// Writes one owned triple ([`write_triple_ref`] with a line buffer of
/// its own; a document goes through [`write_document`]).
pub fn write_triple(out: &mut impl Write, triple: &Triple) -> io::Result<()> {
    write_triple_ref(out, &mut Vec::new(), triple.as_ref())
}

/// Serializes a whole iterator of triples.
pub fn write_document<'a>(
    out: &mut impl Write,
    triples: impl IntoIterator<Item = &'a Triple>,
) -> io::Result<usize> {
    let mut line = Vec::new();
    let mut n = 0;
    for t in triples {
        write_triple_ref(out, &mut line, t.as_ref())?;
        n += 1;
    }
    Ok(n)
}

/// Renders one triple to a `String` (test/diagnostic helper).
pub fn triple_to_string(triple: &Triple) -> String {
    let mut buf = Vec::with_capacity(128);
    write_triple(&mut buf, triple).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("N-Triples output is UTF-8")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A parse error with 1-based line number context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: u64,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N-Triples parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Errors produced while reading an N-Triples document.
#[derive(Debug)]
pub enum Error {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Syntax error.
    Parse(ParseError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::Parse(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}

/// The index of the first byte of `bytes` that is `a` or `b`, read
/// eight bytes at a time: a byte equal to the one sought is a zero byte
/// of the word XOR the sought byte in every lane, and the classic
/// zero-byte test flags the lowest such lane exactly.
fn find2(bytes: &[u8], a: u8, b: u8) -> Option<usize> {
    const LOW: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    let zero_lanes = |word: u64| word.wrapping_sub(LOW) & !word & HIGH;
    let (fill_a, fill_b) = (LOW * a as u64, LOW * b as u64);
    let mut chunks = bytes.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let hits = zero_lanes(word ^ fill_a) | zero_lanes(word ^ fill_b);
        if hits != 0 {
            return Some(at + hits.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = chunks.remainder().iter().position(|&x| x == a || x == b);
    tail.map(|i| at + i)
}

/// True if a line (without its line break) holds no triple: nothing but
/// spaces and tabs, or a `#` comment after them.
fn is_blank(line: &[u8]) -> bool {
    match line.iter().find(|&&b| b != b' ' && b != b'\t') {
        None => true,
        Some(&b) => b == b'#',
    }
}

/// Byte cursor over a single line that is known to be UTF-8. Every
/// delimiter it cuts at is ASCII, so each cut is a character boundary.
struct Cursor<'a> {
    line: &'a str,
    pos: usize,
    line_no: u64,
}

impl<'a> Cursor<'a> {
    fn new(line: &'a str, line_no: u64) -> Self {
        Cursor {
            line,
            pos: 0,
            line_no,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line_no,
            message: message.into(),
        }
    }

    /// The bytes from the cursor on.
    fn rest(&self) -> &'a [u8] {
        &self.line.as_bytes()[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        match self.bump() {
            Some(x) if x == b => Ok(()),
            other => Err(self.err(format!(
                "expected {:?}, found {:?}",
                b as char,
                other.map(|c| c as char)
            ))),
        }
    }

    /// Parses `<IRI>`.
    fn iri(&mut self) -> Result<&'a str, ParseError> {
        self.expect(b'<')?;
        let start = self.pos;
        let len = find2(self.rest(), b'>', b'>').ok_or_else(|| self.err("unterminated IRI"))?;
        self.pos += len + 1;
        Ok(&self.line[start..start + len])
    }

    /// Parses `_:label`.
    fn blank(&mut self) -> Result<&'a str, ParseError> {
        self.expect(b'_')?;
        self.expect(b':')?;
        let start = self.pos;
        let rest = self.rest();
        let len = rest.iter().position(u8::is_ascii_whitespace);
        self.pos += len.unwrap_or(rest.len());
        if self.pos == start {
            return Err(self.err("empty blank node label"));
        }
        Ok(&self.line[start..self.pos])
    }

    /// Parses a quoted literal with optional `@lang` / `^^<dt>` suffix.
    /// The lexical form is a slice of the line unless it has escapes;
    /// then it is unescaped into `unescaped`.
    fn literal(&mut self, unescaped: &'a mut String) -> Result<LiteralRef<'a>, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        let lexical = match find2(self.rest(), b'"', b'\\') {
            None => return Err(self.err("unterminated literal")),
            Some(len) if self.rest()[len] == b'"' => {
                self.pos += len + 1;
                &self.line[start..start + len]
            }
            Some(_) => {
                self.unescape(unescaped)?;
                &unescaped[..]
            }
        };
        match self.peek() {
            Some(b'@') => {
                self.pos += 1;
                let start = self.pos;
                while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'-') {
                    self.pos += 1;
                }
                if self.pos == start {
                    return Err(self.err("empty language tag"));
                }
                Ok(LiteralRef {
                    lexical,
                    datatype: None,
                    language: Some(&self.line[start..self.pos]),
                })
            }
            Some(b'^') => {
                self.pos += 1;
                self.expect(b'^')?;
                Ok(LiteralRef {
                    lexical,
                    datatype: Some(self.iri()?),
                    language: None,
                })
            }
            _ => Ok(LiteralRef {
                lexical,
                datatype: None,
                language: None,
            }),
        }
    }

    /// Unescapes a lexical form from the cursor (just behind its opening
    /// quote) into `out`, and leaves the cursor behind its closing quote.
    /// Runs between escapes are copied whole.
    fn unescape(&mut self, out: &mut String) -> Result<(), ParseError> {
        out.clear();
        loop {
            let Some(len) = find2(self.rest(), b'"', b'\\') else {
                return Err(self.err("unterminated literal"));
            };
            out.push_str(&self.line[self.pos..self.pos + len]);
            self.pos += len;
            if self.bump() == Some(b'"') {
                return Ok(());
            }
            let c = match self.bump() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode_escape(4)?,
                Some(b'U') => self.unicode_escape(8)?,
                other => {
                    return Err(self.err(format!("invalid escape \\{:?}", other.map(|c| c as char))))
                }
            };
            out.push(c);
        }
    }

    fn unicode_escape(&mut self, digits: usize) -> Result<char, ParseError> {
        let mut v: u32 = 0;
        for _ in 0..digits {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        char::from_u32(v).ok_or_else(|| self.err("invalid code point in \\u escape"))
    }

    fn term(&mut self, unescaped: &'a mut String) -> Result<TermRef<'a>, ParseError> {
        match self.peek() {
            Some(b'<') => Ok(TermRef::Iri(self.iri()?)),
            Some(b'_') => Ok(TermRef::Blank(self.blank()?)),
            Some(b'"') => Ok(TermRef::Literal(self.literal(unescaped)?)),
            other => Err(self.err(format!(
                "expected term, found {:?}",
                other.map(|c| c as char)
            ))),
        }
    }

    /// Parses the line as one triple: the one parse routine.
    fn triple(mut self, unescaped: &'a mut String) -> Result<TripleRef<'a>, ParseError> {
        self.skip_ws();
        let subject = match self.peek() {
            Some(b'<') => TermRef::Iri(self.iri()?),
            Some(b'_') => TermRef::Blank(self.blank()?),
            other => {
                return Err(self.err(format!(
                    "expected subject, found {:?}",
                    other.map(|x| x as char)
                )))
            }
        };
        self.skip_ws();
        let predicate = self.iri()?;
        self.skip_ws();
        let object = self.term(unescaped)?;
        self.skip_ws();
        self.expect(b'.')?;
        self.skip_ws();
        if self.peek().is_some() {
            return Err(self.err("trailing content after '.'"));
        }
        Ok(TripleRef {
            subject,
            predicate,
            object,
        })
    }
}

/// Parses one N-Triples line (without its line break). Returns
/// `Ok(None)` for blank/comment lines.
pub fn parse_line(line: &str, line_no: u64) -> Result<Option<Triple>, ParseError> {
    if is_blank(line.as_bytes()) {
        return Ok(None);
    }
    let mut unescaped = String::new();
    let t = Cursor::new(line, line_no).triple(&mut unescaped)?;
    Ok(Some(t.to_triple()))
}

/// Streaming N-Triples parser over any [`BufRead`].
///
/// [`Parser::next_ref`] lends each triple out of one reused line buffer
/// (`BufRead::read_until`, after the perf-book guidance); the
/// `Iterator` of owned [`Triple`]s copies each one out. A line that is
/// not UTF-8 is a [`ParseError`] naming it, like any other malformed
/// line.
pub struct Parser<R> {
    input: R,
    line: Vec<u8>,
    line_no: u64,
    /// The lexical form of the last literal that had escapes.
    unescaped: String,
}

impl<R: BufRead> Parser<R> {
    /// Wraps a buffered reader.
    pub fn new(input: R) -> Self {
        Parser {
            input,
            line: Vec::with_capacity(256),
            line_no: 0,
            unescaped: String::new(),
        }
    }

    /// Reads the next triple, skipping comments and blank lines, and
    /// lends it out of the parser's buffers until the next call.
    /// Returns `Ok(None)` at end of input.
    pub fn next_ref(&mut self) -> Result<Option<TripleRef<'_>>, Error> {
        let line = loop {
            self.line.clear();
            if self.input.read_until(b'\n', &mut self.line)? == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            // The line break, and every `\r` before it, is not content.
            let end = self
                .line
                .iter()
                .rposition(|&b| b != b'\n' && b != b'\r')
                .map_or(0, |i| i + 1);
            // Each line is checked once, comments and blank lines too;
            // only a line holding a triple is lent on.
            if !is_blank(&self.line[..end]) {
                break &utf8(&self.line, self.line_no)?[..end];
            }
            utf8(&self.line, self.line_no)?;
        };
        let t = Cursor::new(line, self.line_no).triple(&mut self.unescaped)?;
        Ok(Some(t))
    }
}

/// A read line as text, or the error naming it.
fn utf8(line: &[u8], line_no: u64) -> Result<&str, ParseError> {
    std::str::from_utf8(line).map_err(|_| ParseError {
        line: line_no,
        message: "line is not valid UTF-8".to_owned(),
    })
}

impl<R: BufRead> Iterator for Parser<R> {
    type Item = Result<Triple, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        let t = self.next_ref().map(|t| t.map(|t| t.to_triple()));
        t.transpose()
    }
}

/// Parses a complete document from a string (test/example helper).
pub fn parse_document(doc: &str) -> Result<Vec<Triple>, Error> {
    Parser::new(doc.as_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Iri, Literal, Subject, Term};
    use crate::vocab::xsd;

    fn roundtrip(t: &Triple) -> Triple {
        let s = triple_to_string(t);
        parse_line(s.trim_end(), 1).unwrap().unwrap()
    }

    #[test]
    fn roundtrip_iri_triple() {
        let t = Triple::new(
            Subject::iri("http://a/s"),
            Iri::new("http://a/p"),
            Term::iri("http://a/o"),
        );
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn roundtrip_blank_and_typed_literal() {
        let t = Triple::new(
            Subject::blank("Paul_Erdoes"),
            Iri::new("http://a/p"),
            Term::Literal(Literal::integer(1940)),
        );
        let back = roundtrip(&t);
        assert_eq!(back, t);
        assert_eq!(back.object.as_literal().unwrap().as_integer(), Some(1940));
    }

    #[test]
    fn roundtrip_escapes() {
        let nasty = "line1\nline2\t\"quoted\" back\\slash\r";
        let t = Triple::new(
            Subject::iri("http://a/s"),
            Iri::new("http://a/p"),
            Term::Literal(Literal::string(nasty)),
        );
        let back = roundtrip(&t);
        assert_eq!(back.object.as_literal().unwrap().lexical, nasty);
    }

    #[test]
    fn roundtrip_unicode() {
        let t = Triple::new(
            Subject::iri("http://a/s"),
            Iri::new("http://a/p"),
            Term::Literal(Literal::plain("Erdős Pál — 数学")),
        );
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn parses_unicode_escapes() {
        let line = r#"<http://a/s> <http://a/p> "é\U0001F600" ."#;
        let t = parse_line(line, 1).unwrap().unwrap();
        assert_eq!(t.object.as_literal().unwrap().lexical, "é😀");
    }

    #[test]
    fn skips_comments_and_blanks() {
        let doc = "# header\n\n<http://a/s> <http://a/p> <http://a/o> .\n# done\n";
        let triples = parse_document(doc).unwrap();
        assert_eq!(triples.len(), 1);
    }

    #[test]
    fn language_tagged_literal() {
        let line = r#"<http://a/s> <http://a/p> "chat"@fr-BE ."#;
        let t = parse_line(line, 1).unwrap().unwrap();
        let lit = t.object.as_literal().unwrap();
        assert_eq!(lit.language.as_deref(), Some("fr-BE"));
    }

    #[test]
    fn typed_literal_datatype_preserved() {
        let line = format!(r#"<http://a/s> <http://a/p> "42"^^<{}> ."#, xsd::INTEGER);
        let t = parse_line(&line, 1).unwrap().unwrap();
        assert_eq!(t.object.as_literal().unwrap().as_integer(), Some(42));
    }

    #[test]
    fn error_reports_line_number() {
        let err = parse_line("<oops", 7).unwrap_err();
        assert_eq!(err.line, 7);
        assert!(err.to_string().contains("line 7"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let line = "<http://a/s> <http://a/p> <http://a/o> . extra";
        assert!(parse_line(line, 1).is_err());
    }

    #[test]
    fn rejects_literal_subject() {
        let line = r#""lit" <http://a/p> <http://a/o> ."#;
        assert!(parse_line(line, 1).is_err());
    }

    #[test]
    fn the_word_scan_finds_the_first_delimiter_at_every_offset() {
        // Fillers next to the sought bytes in value (`=` `?` `!` `#`),
        // with the high bit set, and zero.
        for filler in [b'a', b'=', b'?', b'!', b'#', 0x00, 0x80, 0xBE, 0xFF] {
            for len in 0..26 {
                let mut bytes = vec![filler; len];
                assert_eq!(find2(&bytes, b'"', b'\\'), None, "{filler:#x} × {len}");
                for at in 0..len {
                    for (a, b) in [(b'>', b'>'), (b'"', b'\\')] {
                        for sought in [a, b] {
                            bytes.fill(filler);
                            bytes[at] = sought;
                            // A later hit must not win.
                            if at + 3 < len {
                                bytes[at + 3] = a;
                            }
                            let shown = format!("{filler:#x} × {len}, {sought} at {at}");
                            assert_eq!(find2(&bytes, a, b), Some(at), "{shown}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn parser_iterator_collects() {
        let mut doc = String::new();
        for i in 0..10 {
            doc.push_str(&format!("<http://a/s{i}> <http://a/p> \"v{i}\" .\n"));
        }
        let triples: Vec<_> = Parser::new(doc.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(triples.len(), 10);
    }
}
