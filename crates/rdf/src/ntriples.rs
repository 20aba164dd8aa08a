//! N-Triples serialization and parsing.
//!
//! The generator streams N-Triples through [`write_triple`] (one syscall-
//! buffered line per triple, constant memory), and the stores bulk-load
//! through [`Parser`], a hand-rolled byte-level parser that avoids
//! per-token allocations where possible. Both ends implement the subset of
//! N-Triples the benchmark data uses — IRIs, blank nodes, plain/typed/
//! language-tagged literals, `.` terminators, `#` comments — plus the
//! standard string escapes, so foreign N-Triples documents load too.

use std::fmt;
use std::io::{self, BufRead, Write};

use crate::term::{BlankNode, Iri, Literal, Subject, Term};
use crate::triple::Triple;

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Writes a string literal's lexical form with N-Triples escaping.
fn write_escaped(out: &mut impl Write, s: &str) -> io::Result<()> {
    // Fast path: write unbroken runs of safe characters in one call.
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc: Option<&[u8]> = match b {
            b'"' => Some(b"\\\""),
            b'\\' => Some(b"\\\\"),
            b'\n' => Some(b"\\n"),
            b'\r' => Some(b"\\r"),
            b'\t' => Some(b"\\t"),
            _ => None,
        };
        if let Some(esc) = esc {
            out.write_all(&bytes[start..i])?;
            out.write_all(esc)?;
            start = i + 1;
        }
    }
    out.write_all(&bytes[start..])
}

/// Writes one term in N-Triples syntax (no trailing space).
pub fn write_term(out: &mut impl Write, term: &Term) -> io::Result<()> {
    match term {
        Term::Iri(i) => {
            out.write_all(b"<")?;
            out.write_all(i.as_str().as_bytes())?;
            out.write_all(b">")
        }
        Term::Blank(b) => {
            out.write_all(b"_:")?;
            out.write_all(b.as_str().as_bytes())
        }
        Term::Literal(l) => {
            out.write_all(b"\"")?;
            write_escaped(out, &l.lexical)?;
            out.write_all(b"\"")?;
            if let Some(lang) = &l.language {
                out.write_all(b"@")?;
                out.write_all(lang.as_bytes())
            } else if let Some(dt) = &l.datatype {
                out.write_all(b"^^<")?;
                out.write_all(dt.as_str().as_bytes())?;
                out.write_all(b">")
            } else {
                Ok(())
            }
        }
    }
}

/// Writes one triple as a complete N-Triples line (including `" .\n"`).
pub fn write_triple(out: &mut impl Write, triple: &Triple) -> io::Result<()> {
    match &triple.subject {
        Subject::Iri(i) => {
            out.write_all(b"<")?;
            out.write_all(i.as_str().as_bytes())?;
            out.write_all(b"> ")?;
        }
        Subject::Blank(b) => {
            out.write_all(b"_:")?;
            out.write_all(b.as_str().as_bytes())?;
            out.write_all(b" ")?;
        }
    }
    out.write_all(b"<")?;
    out.write_all(triple.predicate.as_str().as_bytes())?;
    out.write_all(b"> ")?;
    write_term(out, &triple.object)?;
    out.write_all(b" .\n")
}

/// Serializes a whole iterator of triples.
pub fn write_document<'a>(
    out: &mut impl Write,
    triples: impl IntoIterator<Item = &'a Triple>,
) -> io::Result<usize> {
    let mut n = 0;
    for t in triples {
        write_triple(out, t)?;
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

/// Byte cursor over a single line.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u64,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
    fn iri(&mut self) -> Result<Iri, ParseError> {
        self.expect(b'<')?;
        let start = self.pos;
        loop {
            match self.bump() {
                Some(b'>') => {
                    let s = &self.bytes[start..self.pos - 1];
                    let s =
                        std::str::from_utf8(s).map_err(|_| self.err("IRI is not valid UTF-8"))?;
                    return Ok(Iri::new(s));
                }
                Some(_) => {}
                None => return Err(self.err("unterminated IRI")),
            }
        }
    }

    /// Parses `_:label`.
    fn blank(&mut self) -> Result<BlankNode, ParseError> {
        self.expect(b'_')?;
        self.expect(b':')?;
        let start = self.pos;
        while matches!(self.peek(), Some(b) if !b.is_ascii_whitespace()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("empty blank node label"));
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("blank node label is not valid UTF-8"))?;
        Ok(BlankNode::new(s))
    }

    /// Parses a quoted literal with optional `@lang` / `^^<dt>` suffix.
    fn literal(&mut self) -> Result<Literal, ParseError> {
        self.expect(b'"')?;
        let mut lexical = String::new();
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'"') => lexical.push('"'),
                    Some(b'\\') => lexical.push('\\'),
                    Some(b'n') => lexical.push('\n'),
                    Some(b'r') => lexical.push('\r'),
                    Some(b't') => lexical.push('\t'),
                    Some(b'u') => lexical.push(self.unicode_escape(4)?),
                    Some(b'U') => lexical.push(self.unicode_escape(8)?),
                    other => {
                        return Err(
                            self.err(format!("invalid escape \\{:?}", other.map(|c| c as char)))
                        )
                    }
                },
                Some(b) if b < 0x80 => lexical.push(b as char),
                Some(b) => {
                    // Re-assemble a multi-byte UTF-8 sequence.
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8 in literal"))?;
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump()
                            .ok_or_else(|| self.err("truncated UTF-8 in literal"))?;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in literal"))?;
                    lexical.push_str(s);
                }
                None => return Err(self.err("unterminated literal")),
            }
        }
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
                let lang = std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("ASCII checked")
                    .to_owned();
                Ok(Literal {
                    lexical,
                    datatype: None,
                    language: Some(lang),
                })
            }
            Some(b'^') => {
                self.pos += 1;
                self.expect(b'^')?;
                let dt = self.iri()?;
                Ok(Literal {
                    lexical,
                    datatype: Some(dt),
                    language: None,
                })
            }
            _ => Ok(Literal {
                lexical,
                datatype: None,
                language: None,
            }),
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

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.peek() {
            Some(b'<') => Ok(Term::Iri(self.iri()?)),
            Some(b'_') => Ok(Term::Blank(self.blank()?)),
            Some(b'"') => Ok(Term::Literal(self.literal()?)),
            other => Err(self.err(format!(
                "expected term, found {:?}",
                other.map(|c| c as char)
            ))),
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

/// Parses one N-Triples line. Returns `Ok(None)` for blank/comment lines.
pub fn parse_line(line: &str, line_no: u64) -> Result<Option<Triple>, ParseError> {
    let mut c = Cursor {
        bytes: line.as_bytes(),
        pos: 0,
        line: line_no,
    };
    c.skip_ws();
    match c.peek() {
        None | Some(b'#') => return Ok(None),
        _ => {}
    }
    let subject = match c.peek() {
        Some(b'<') => Subject::Iri(c.iri()?),
        Some(b'_') => Subject::Blank(c.blank()?),
        other => {
            return Err(c.err(format!(
                "expected subject, found {:?}",
                other.map(|x| x as char)
            )))
        }
    };
    c.skip_ws();
    let predicate = c.iri()?;
    c.skip_ws();
    let object = c.term()?;
    c.skip_ws();
    c.expect(b'.')?;
    c.skip_ws();
    if c.peek().is_some() {
        return Err(c.err("trailing content after '.'"));
    }
    Ok(Some(Triple {
        subject,
        predicate,
        object,
    }))
}

/// Streaming N-Triples parser over any [`BufRead`].
///
/// Reuses a single line buffer (`BufRead::read_until` rather than
/// `lines()`, after the perf-book guidance), so parsing allocates only
/// for the term strings themselves. A line that is not UTF-8 is a
/// [`ParseError`] naming it, like any other malformed line.
pub struct Parser<R> {
    input: R,
    buf: Vec<u8>,
    line_no: u64,
}

impl<R: BufRead> Parser<R> {
    /// Wraps a buffered reader.
    pub fn new(input: R) -> Self {
        Parser {
            input,
            buf: Vec::with_capacity(256),
            line_no: 0,
        }
    }

    /// Reads the next triple, skipping comments and blank lines.
    /// Returns `Ok(None)` at end of input.
    pub fn next_triple(&mut self) -> Result<Option<Triple>, Error> {
        loop {
            self.buf.clear();
            let n = self.input.read_until(b'\n', &mut self.buf)?;
            if n == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            let line = std::str::from_utf8(&self.buf).map_err(|_| ParseError {
                line: self.line_no,
                message: "line is not valid UTF-8".to_owned(),
            })?;
            if let Some(t) = parse_line(line.trim_end_matches(['\n', '\r']), self.line_no)? {
                return Ok(Some(t));
            }
        }
    }
}

impl<R: BufRead> Iterator for Parser<R> {
    type Item = Result<Triple, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_triple().transpose()
    }
}

/// Parses a complete document from a string (test/example helper).
pub fn parse_document(doc: &str) -> Result<Vec<Triple>, Error> {
    Parser::new(doc.as_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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
