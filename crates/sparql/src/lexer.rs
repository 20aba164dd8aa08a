//! Tokenizer for the SPARQL subset.

use std::fmt;

/// Lexical error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset in the query string.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lexical error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// A token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword (uppercased): SELECT, ASK, WHERE, PREFIX, DISTINCT, FILTER,
    /// OPTIONAL, UNION, ORDER, BY, LIMIT, OFFSET, ASC, DESC, BOUND, A
    /// (the `a` shorthand keeps its own token), TRUE, FALSE.
    Keyword(String),
    /// `<…>` IRI reference.
    IriRef(String),
    /// `prefix:local` name (prefix may be empty).
    PrefixedName(String, String),
    /// `?name` or `$name`.
    Var(String),
    /// `_:label` blank node.
    BlankNode(String),
    /// String literal (unescaped lexical form).
    String(String),
    /// Integer literal: wide enough for any `LIMIT`/`OFFSET` count and
    /// any `xsd:integer` term; the parser checks which it is.
    Integer(i128),
    /// `^^` datatype marker.
    DatatypeMarker,
    /// `@lang` tag.
    LangTag(String),
    /// Punctuation and operators.
    Punct(Punct),
}

/// Punctuation tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Punct {
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `.`.
    Dot,
    /// `;`.
    Semicolon,
    /// `,`.
    Comma,
    /// `&&`.
    AndAnd,
    /// `||`.
    OrOr,
    /// `!`.
    Bang,
    /// `=`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `*`.
    Star,
}

const KEYWORDS: &[&str] = &[
    "SELECT", "ASK", "WHERE", "PREFIX", "DISTINCT", "FILTER", "OPTIONAL", "UNION", "ORDER", "BY",
    "LIMIT", "OFFSET", "ASC", "DESC", "BOUND", "TRUE", "FALSE", "COUNT", "AS", "GROUP",
];

/// Tokenizes a query string.
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;

    let err = |offset: usize, message: &str| LexError {
        offset,
        message: message.into(),
    };

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'{' => {
                tokens.push(Token::Punct(Punct::LBrace));
                i += 1;
            }
            b'}' => {
                tokens.push(Token::Punct(Punct::RBrace));
                i += 1;
            }
            b'(' => {
                tokens.push(Token::Punct(Punct::LParen));
                i += 1;
            }
            b')' => {
                tokens.push(Token::Punct(Punct::RParen));
                i += 1;
            }
            b'.' => {
                tokens.push(Token::Punct(Punct::Dot));
                i += 1;
            }
            b';' => {
                tokens.push(Token::Punct(Punct::Semicolon));
                i += 1;
            }
            b',' => {
                tokens.push(Token::Punct(Punct::Comma));
                i += 1;
            }
            b'*' => {
                tokens.push(Token::Punct(Punct::Star));
                i += 1;
            }
            b'&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    tokens.push(Token::Punct(Punct::AndAnd));
                    i += 2;
                } else {
                    return Err(err(i, "expected '&&'"));
                }
            }
            b'|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    tokens.push(Token::Punct(Punct::OrOr));
                    i += 2;
                } else {
                    return Err(err(i, "expected '||'"));
                }
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Punct(Punct::Ne));
                    i += 2;
                } else {
                    tokens.push(Token::Punct(Punct::Bang));
                    i += 1;
                }
            }
            b'=' => {
                tokens.push(Token::Punct(Punct::Eq));
                i += 1;
            }
            b'<' => {
                // `<` starts either an IRI ref or a comparison. An IRI ref
                // contains no whitespace and closes with `>` before any
                // whitespace; `<=` is always the operator.
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Punct(Punct::Le));
                    i += 2;
                } else if let Some(end) = scan_iri_end(bytes, i + 1) {
                    let iri = &input[i + 1..end];
                    tokens.push(Token::IriRef(iri.to_owned()));
                    i = end + 1;
                } else {
                    tokens.push(Token::Punct(Punct::Lt));
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Punct(Punct::Ge));
                    i += 2;
                } else {
                    tokens.push(Token::Punct(Punct::Gt));
                    i += 1;
                }
            }
            b'?' | b'$' => {
                let start = i + 1;
                let end = scan_name(bytes, start);
                if end == start {
                    return Err(err(i, "empty variable name"));
                }
                tokens.push(Token::Var(input[start..end].to_owned()));
                i = end;
            }
            b'_' if bytes.get(i + 1) == Some(&b':') => {
                let start = i + 2;
                let end = scan_name(bytes, start);
                if end == start {
                    return Err(err(i, "empty blank node label"));
                }
                tokens.push(Token::BlankNode(input[start..end].to_owned()));
                i = end;
            }
            b'"' => {
                let (lexical, next) = scan_string(input, bytes, i)?;
                tokens.push(Token::String(lexical));
                i = next;
            }
            b'^' => {
                if bytes.get(i + 1) == Some(&b'^') {
                    tokens.push(Token::DatatypeMarker);
                    i += 2;
                } else {
                    return Err(err(i, "expected '^^'"));
                }
            }
            b'@' => {
                let start = i + 1;
                let mut end = start;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'-')
                {
                    end += 1;
                }
                if end == start {
                    return Err(err(i, "empty language tag"));
                }
                tokens.push(Token::LangTag(input[start..end].to_owned()));
                i = end;
            }
            b'0'..=b'9' | b'-' | b'+' => {
                let start = i;
                let mut end = if b == b'-' || b == b'+' { i + 1 } else { i };
                while end < bytes.len() && bytes[end].is_ascii_digit() {
                    end += 1;
                }
                if end == start || (end == start + 1 && !bytes[start].is_ascii_digit()) {
                    return Err(err(i, "malformed numeric literal"));
                }
                let value: i128 = input[start..end]
                    .parse()
                    .map_err(|_| err(i, "integer out of range"))?;
                tokens.push(Token::Integer(value));
                i = end;
            }
            _ if b.is_ascii_alphabetic() => {
                let start = i;
                let end = scan_name(bytes, start);
                let word = &input[start..end];
                // `prefix:local`?
                if bytes.get(end) == Some(&b':') {
                    let lstart = end + 1;
                    let lend = scan_name(bytes, lstart);
                    tokens.push(Token::PrefixedName(
                        word.to_owned(),
                        input[lstart..lend].to_owned(),
                    ));
                    i = lend;
                } else if word == "a" {
                    // The rdf:type shorthand.
                    tokens.push(Token::Keyword("A".to_owned()));
                    i = end;
                } else {
                    let upper = word.to_ascii_uppercase();
                    if KEYWORDS.contains(&upper.as_str()) {
                        tokens.push(Token::Keyword(upper));
                        i = end;
                    } else {
                        return Err(err(start, &format!("unexpected word '{word}'")));
                    }
                }
            }
            b':' => {
                // Default-prefix name `:local`.
                let lstart = i + 1;
                let lend = scan_name(bytes, lstart);
                tokens.push(Token::PrefixedName(
                    String::new(),
                    input[lstart..lend].to_owned(),
                ));
                i = lend;
            }
            _ => return Err(err(i, &format!("unexpected byte 0x{b:02x}"))),
        }
    }
    Ok(tokens)
}

/// Scans a name run (letters, digits, `_`).
fn scan_name(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
        i += 1;
    }
    i
}

/// If an IRI ref starts at `start` (after `<`), returns the index of the
/// closing `>`; IRIs may not contain whitespace or `<`.
fn scan_iri_end(bytes: &[u8], start: usize) -> Option<usize> {
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'>' => return Some(i),
            b' ' | b'\t' | b'\r' | b'\n' | b'<' | b'"' => return None,
            _ => i += 1,
        }
    }
    None
}

/// Scans a quoted string starting at `i` (which is the opening quote);
/// returns (unescaped value, index after closing quote).
fn scan_string(input: &str, bytes: &[u8], i: usize) -> Result<(String, usize), LexError> {
    let mut out = String::new();
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'"' => return Ok((out, j + 1)),
            b'\\' => {
                let esc = bytes.get(j + 1).ok_or(LexError {
                    offset: j,
                    message: "dangling escape".into(),
                })?;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    other => {
                        return Err(LexError {
                            offset: j,
                            message: format!("unsupported escape \\{}", *other as char),
                        })
                    }
                });
                j += 2;
            }
            _ => {
                // Copy one UTF-8 scalar.
                let ch = input[j..].chars().next().expect("valid UTF-8");
                out.push(ch);
                j += ch.len_utf8();
            }
        }
    }
    Err(LexError {
        offset: i,
        message: "unterminated string".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_basic_select() {
        let toks = tokenize("SELECT ?yr WHERE { ?j rdf:type bench:Journal . }").unwrap();
        assert_eq!(toks[0], Token::Keyword("SELECT".into()));
        assert_eq!(toks[1], Token::Var("yr".into()));
        assert!(toks.contains(&Token::PrefixedName("rdf".into(), "type".into())));
        assert!(toks.contains(&Token::Punct(Punct::Dot)));
    }

    #[test]
    fn distinguishes_iri_from_less_than() {
        let toks = tokenize("FILTER (?a < ?b)").unwrap();
        assert!(toks.contains(&Token::Punct(Punct::Lt)));
        let toks = tokenize("<http://example.org/x>").unwrap();
        assert_eq!(toks, vec![Token::IriRef("http://example.org/x".into())]);
        // `<= ` is an operator even though `<` could open an IRI.
        let toks = tokenize("?a <= 5").unwrap();
        assert!(toks.contains(&Token::Punct(Punct::Le)));
    }

    #[test]
    fn typed_literal_tokens() {
        let toks = tokenize(r#""Journal 1 (1940)"^^xsd:string"#).unwrap();
        assert_eq!(
            toks,
            vec![
                Token::String("Journal 1 (1940)".into()),
                Token::DatatypeMarker,
                Token::PrefixedName("xsd".into(), "string".into()),
            ]
        );
    }

    #[test]
    fn operators_and_logicals() {
        let toks = tokenize("!= && || ! = >= <=").unwrap();
        use Punct::*;
        let expect: Vec<Token> = [Ne, AndAnd, OrOr, Bang, Eq, Ge, Le]
            .map(Token::Punct)
            .to_vec();
        assert_eq!(toks, expect);
    }

    #[test]
    fn keywords_case_insensitive() {
        let toks = tokenize("select Where oPtIoNaL").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT".into()),
                Token::Keyword("WHERE".into()),
                Token::Keyword("OPTIONAL".into()),
            ]
        );
    }

    #[test]
    fn rdf_type_shorthand() {
        let toks = tokenize("?s a foaf:Person").unwrap();
        assert_eq!(toks[1], Token::Keyword("A".into()));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("SELECT # comment ?x\n?y").unwrap();
        assert_eq!(
            toks,
            vec![Token::Keyword("SELECT".into()), Token::Var("y".into())]
        );
    }

    #[test]
    fn string_escapes() {
        let toks = tokenize(r#""a\"b\\c\nd""#).unwrap();
        assert_eq!(toks, vec![Token::String("a\"b\\c\nd".into())]);
    }

    #[test]
    fn integers_with_sign() {
        let toks = tokenize("LIMIT 10 OFFSET 50").unwrap();
        assert!(toks.contains(&Token::Integer(10)));
        assert!(toks.contains(&Token::Integer(50)));
        assert_eq!(tokenize("-42").unwrap(), vec![Token::Integer(-42)]);
    }

    #[test]
    fn blank_nodes_and_vars() {
        let toks = tokenize("_:b1 ?x $y").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::BlankNode("b1".into()),
                Token::Var("x".into()),
                Token::Var("y".into()),
            ]
        );
    }

    #[test]
    fn error_reports_offset() {
        let e = tokenize("SELECT @").unwrap_err();
        assert_eq!(e.offset, 7);
    }
}
