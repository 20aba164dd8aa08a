//! Seeded property tests: N-Triples serialization and parsing are
//! inverse, and the `ORDER BY` order over terms is a total order.
//!
//! Each case comes from a seed printed in every assertion message;
//! `SP2B_SEED=<n> cargo test -p sp2b-rdf --test proptest_ntriples`
//! replays that one case.

use std::cmp::Ordering;

use sp2b_datagen::rng::SplitMix64;
use sp2b_rdf::ntriples::{parse_line, triple_to_string, write_document, Parser};
use sp2b_rdf::vocab::xsd;
use sp2b_rdf::{Iri, Literal, Subject, Term, Triple};

/// Cases per property.
const CASES: u64 = 512;

/// The seeds to run: every case, or the one `SP2B_SEED` names.
fn seeds() -> Vec<u64> {
    match std::env::var("SP2B_SEED") {
        Ok(seed) => vec![seed.parse().expect("SP2B_SEED is a number")],
        Err(_) => (0..CASES).collect(),
    }
}

/// Draws from one seed.
struct Gen(SplitMix64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }

    /// `min..=max` characters of `alphabet`.
    fn text(&mut self, alphabet: &[char], min: u64, max: u64) -> String {
        let len = min + self.below(max - min + 1);
        (0..len).map(|_| self.pick(alphabet)).collect()
    }

    /// An IRI without whitespace, `<`, `>` or `"` (what the serializer
    /// assumes of IRIs).
    fn iri(&mut self) -> Iri {
        let scheme = self.text(LOWER, 1, 8);
        let path = self.text(IRI_PATH, 1, 30);
        Iri::new(format!("{scheme}://{path}"))
    }

    fn blank(&mut self) -> String {
        self.text(LABEL, 1, 16)
    }

    /// Any lexical form: escapes and multi-byte characters included.
    fn lexical(&mut self) -> String {
        self.text(LEXICAL, 0, 40)
    }

    fn literal(&mut self) -> Literal {
        match self.below(10) {
            0 => Literal::plain(self.lexical()),
            1 => Literal::string(self.lexical()),
            2 => Literal::integer(self.0.next_u64() as i64),
            // Small integers, written with and without leading zeros.
            3 => {
                let lexical = format!(
                    "{}{}",
                    self.pick(&["", "0", "00", "-", "+"]),
                    self.below(12)
                );
                Literal::typed(lexical, Iri::new(xsd::INTEGER))
            }
            // Digit-only plain literals next to those integers.
            4 => Literal::plain(self.below(12).to_string()),
            5 => Literal::string(self.below(12).to_string()),
            6 => {
                let mut lit = Literal::plain(self.lexical());
                let tag = self.text(LOWER, 1, 4);
                lit.language = Some(match self.below(2) {
                    0 => tag,
                    _ => format!("{tag}-{}", self.text(LABEL_LOWER, 1, 4)),
                });
                lit
            }
            7 => Literal::typed(
                self.pick(&["true", "false", "1", "0", "yes"]),
                Iri::new(xsd::BOOLEAN),
            ),
            _ => Literal::typed(self.lexical(), self.iri()),
        }
    }

    fn term(&mut self) -> Term {
        match self.below(4) {
            0 => Term::Iri(self.iri()),
            1 => Term::blank(self.blank()),
            _ => Term::Literal(self.literal()),
        }
    }

    /// A term of the crowded corner of the `ORDER BY` order: integers
    /// whose value order and lexical order disagree (`"2"` < `"10"`),
    /// next to digit-led plain and `xsd:string` literals that sort
    /// between them by text, and now and then any other term.
    fn ordered_term(&mut self) -> Term {
        let digits = format!("{}{}", self.pick(&["", "", "0", "-"]), self.below(13));
        match self.below(6) {
            0 | 1 => Term::Literal(Literal::typed(digits, Iri::new(xsd::INTEGER))),
            2 => Term::Literal(Literal::plain(format!("{digits}{}", self.pick(&["", "x"])))),
            3 => Term::Literal(Literal::string(digits)),
            _ => self.term(),
        }
    }

    fn subject(&mut self) -> Subject {
        match self.below(2) {
            0 => Subject::Iri(self.iri()),
            _ => Subject::blank(self.blank()),
        }
    }

    fn triple(&mut self) -> Triple {
        Triple {
            subject: self.subject(),
            predicate: self.iri(),
            object: self.term(),
        }
    }
}

const LOWER: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's',
    't', 'u', 'v', 'w', 'x', 'y', 'z',
];
const LABEL_LOWER: &[char] = &['a', 'k', 'z', '0', '5', '9'];
const LABEL: &[char] = &['a', 'Z', 'q', 'J', '0', '7', '_'];
const IRI_PATH: &[char] = &['a', 'Z', 'q', '0', '9', '.', '_', '/', '~', '#', '-'];
const LEXICAL: &[char] = &[
    'a', 'b', 'Z', '0', '1', '9', ' ', '"', '\\', '\n', '\r', '\t', '<', '>', '^', '@', '#', '.',
    'é', '漢', '🎉',
];

/// Runs `property` on a fresh generator per seed.
fn check(mut property: impl FnMut(u64, &mut Gen)) {
    for seed in seeds() {
        property(seed, &mut Gen(SplitMix64::new(seed)));
    }
}

#[test]
fn serialize_parse_roundtrip() {
    check(|seed, g| {
        let t = g.triple();
        let line = triple_to_string(&t);
        let parsed = parse_line(line.trim_end(), 1)
            .unwrap_or_else(|e| panic!("seed {seed}: {line:?} does not parse: {e}"))
            .expect("line is not blank");
        assert_eq!(parsed, t, "seed {seed}");
    });
}

#[test]
fn serialized_form_is_single_line() {
    check(|seed, g| {
        let line = triple_to_string(&g.triple());
        // Embedded newlines must be escaped: exactly one trailing '\n'.
        assert_eq!(line.matches('\n').count(), 1, "seed {seed}: {line:?}");
        assert!(line.ends_with(" .\n"), "seed {seed}: {line:?}");
    });
}

#[test]
fn document_roundtrip() {
    check(|seed, g| {
        let triples: Vec<Triple> = (0..g.below(40)).map(|_| g.triple()).collect();
        let mut doc = Vec::new();
        write_document(&mut doc, triples.iter()).expect("vec write");
        let parsed: Vec<Triple> = Parser::new(&doc[..])
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| panic!("seed {seed}: document does not parse: {e}"));
        assert_eq!(parsed, triples, "seed {seed}");
    });
}

/// Reflexive, antisymmetric and transitive: what `sort_by` needs of the
/// order `ORDER BY` sorts with.
#[test]
fn term_ordering_is_total() {
    check(|seed, g| {
        let [a, b, c] = [g.ordered_term(), g.ordered_term(), g.ordered_term()];
        assert_eq!(a.cmp(&a), Ordering::Equal, "seed {seed}: {a}");
        for (x, y) in [(&a, &b), (&b, &c), (&a, &c)] {
            assert_eq!(x.cmp(y), y.cmp(x).reverse(), "seed {seed}: {x} vs {y}");
            assert_eq!(
                x.cmp(y) == Ordering::Equal,
                x == y,
                "seed {seed}: {x} vs {y}"
            );
        }
        // Every arrangement of the three: x ≤ y ≤ z ⇒ x ≤ z.
        for [x, y, z] in [
            [&a, &b, &c],
            [&a, &c, &b],
            [&b, &a, &c],
            [&b, &c, &a],
            [&c, &a, &b],
            [&c, &b, &a],
        ] {
            if x <= y && y <= z {
                assert!(x <= z, "seed {seed}: {x} ≤ {y} ≤ {z} but not {x} ≤ {z}");
            }
        }
    });
}

/// What a document parses to: its triples, or the first error's line
/// and message.
type Parsed = Result<Vec<Triple>, (u64, String)>;

fn parse(doc: &[u8]) -> Parsed {
    Parser::new(doc)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| match e {
            sp2b_rdf::ntriples::Error::Parse(e) => (e.line, e.message),
            sp2b_rdf::ntriples::Error::Io(e) => panic!("reading a slice failed: {e}"),
        })
}

fn iri(s: &str) -> Term {
    Term::iri(s)
}

fn lit(lexical: &str, datatype: Option<&str>, language: Option<&str>) -> Term {
    Term::Literal(Literal {
        lexical: lexical.to_owned(),
        datatype: datatype.map(Iri::new),
        language: language.map(str::to_owned),
    })
}

fn triple(s: Subject, p: &str, o: Term) -> Triple {
    Triple::new(s, Iri::new(p), o)
}

fn fails(line: u64, message: &str) -> Parsed {
    Err((line, message.to_owned()))
}

/// The parser's behaviour, case by case: the exact triples of a
/// well-formed document, or the exact message and line of the first
/// error of a malformed one. Every one-line case is also checked
/// through `parse_line`.
#[test]
fn parser_cases_are_pinned() {
    let s = || Subject::iri("http://a/s");
    let p = "http://a/p";
    let one = |o: Term| Ok(vec![triple(s(), p, o)]);
    let cases: Vec<(&[u8], Parsed)> = vec![
        // Every term kind.
        (
            b"<http://a/s> <http://a/p> <http://a/o> .\n",
            one(iri("http://a/o")),
        ),
        (
            b"_:b1 <http://a/p> _:b2 .\n",
            Ok(vec![triple(Subject::blank("b1"), p, Term::blank("b2"))]),
        ),
        (
            b"<http://a/s> <http://a/p> \"plain\" .\n",
            one(lit("plain", None, None)),
        ),
        (
            b"<http://a/s> <http://a/p> \"\" .\n",
            one(lit("", None, None)),
        ),
        (
            b"<http://a/s> <http://a/p> \"chat\"@fr-BE .\n",
            one(lit("chat", None, Some("fr-BE"))),
        ),
        (
            b"<http://a/s> <http://a/p> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
            one(lit("42", Some(xsd::INTEGER), None)),
        ),
        (
            b"<http://a/s> <http://a/p> \"x\"^^<> .\n",
            one(lit("x", Some(""), None)),
        ),
        // Escapes, in a plain and a typed literal.
        (
            b"<http://a/s> <http://a/p> \"q\\\" b\\\\ n\\n r\\r t\\t\" .\n",
            one(lit("q\" b\\ n\n r\r t\t", None, None)),
        ),
        (
            b"<http://a/s> <http://a/p> \"\\u00E9\\u00e9\\U0001F600!\"^^<http://x/dt> .\n",
            one(lit("\u{e9}\u{e9}\u{1F600}!", Some("http://x/dt"), None)),
        ),
        (
            b"<http://a/s> <http://a/p> \"a long run before the escape\\tand after it\"@en .\n",
            one(lit(
                "a long run before the escape\tand after it",
                None,
                Some("en"),
            )),
        ),
        // Multi-byte UTF-8 in IRIs, labels and literals.
        (
            "<http://a/Erdős> <http://a/p> <http://a/数学> .\n".as_bytes(),
            Ok(vec![triple(
                Subject::iri("http://a/Erdős"),
                p,
                iri("http://a/数学"),
            )]),
        ),
        (
            "_:Pál <http://a/p> \"Erdős Pál — 数学 🎉\" .\n".as_bytes(),
            Ok(vec![triple(
                Subject::blank("Pál"),
                p,
                lit("Erdős Pál — 数学 🎉", None, None),
            )]),
        ),
        // Comments, blank lines, CRLF, leading and trailing whitespace.
        (
            b"# header\n\n   \n\t# indented\r\n<http://a/s> <http://a/p> <http://a/o> . # not a comment\n",
            fails(5, "trailing content after '.'"),
        ),
        (
            b"# header\n\n \t \r\n<http://a/s> <http://a/p> <http://a/o> .\r\n# done",
            one(iri("http://a/o")),
        ),
        (
            b" \t<http://a/s>\t <http://a/p>  <http://a/o>. \t\r\r\n",
            one(iri("http://a/o")),
        ),
        (
            b"<http://a/s> <http://a/p> \"no newline at the end\" .",
            one(lit("no newline at the end", None, None)),
        ),
        (
            b"<http://a/s> <http://a/p> <http://a/o> .\r <http://a/s> .\n",
            fails(1, "trailing content after '.'"),
        ),
        (b"", Ok(vec![])),
        (b"\n\n# only comments\n", Ok(vec![])),
        // Unterminated terms.
        (
            b"<http://a/s> <http://a/p> <http://a/o .\n",
            fails(1, "unterminated IRI"),
        ),
        (
            b"<http://a/s <http://a/p> <http://a/o> .\n",
            fails(1, "expected term, found Some('.')"),
        ),
        (
            b"<http://a/s> <http://a/p> \"open .\n",
            fails(1, "unterminated literal"),
        ),
        (
            b"<http://a/s> <http://a/p> \"open \\\" .\n",
            fails(1, "unterminated literal"),
        ),
        // Bad escapes.
        (
            b"<http://a/s> <http://a/p> \"a\\qb\" .\n",
            fails(1, "invalid escape \\Some('q')"),
        ),
        (
            b"<http://a/s> <http://a/p> \"a\\",
            fails(1, "invalid escape \\None"),
        ),
        (
            b"<http://a/s> <http://a/p> \"\\u00\" .\n",
            fails(1, "non-hex digit in \\u escape"),
        ),
        (
            b"<http://a/s> <http://a/p> \"\\U0001F6",
            fails(1, "truncated \\u escape"),
        ),
        (
            b"<http://a/s> <http://a/p> \"\\uD800\" .\n",
            fails(1, "invalid code point in \\u escape"),
        ),
        (
            b"<http://a/s> <http://a/p> \"\\U00110000\" .\n",
            fails(1, "invalid code point in \\u escape"),
        ),
        // Lines that are not UTF-8, a comment among them.
        (
            b"<http://a/s> <http://a/p> <http://a/o> .\n<http://a/s> <http://a/p> \"\xff\" .\n",
            fails(2, "line is not valid UTF-8"),
        ),
        (b"# \xc3\n", fails(1, "line is not valid UTF-8")),
        // Trailing garbage and other malformed lines.
        (
            b"<http://a/s> <http://a/p> <http://a/o> . extra\n",
            fails(1, "trailing content after '.'"),
        ),
        (
            b"<http://a/s> <http://a/p> <http://a/o> .. \n",
            fails(1, "trailing content after '.'"),
        ),
        (
            b"<http://a/s> <http://a/p> <http://a/o>\n",
            fails(1, "expected '.', found None"),
        ),
        (
            b"\"lit\" <http://a/p> <http://a/o> .\n",
            fails(1, "expected subject, found Some('\"')"),
        ),
        (
            "é <http://a/p> <http://a/o> .\n".as_bytes(),
            fails(1, "expected subject, found Some('Ã')"),
        ),
        (
            b"<http://a/s> <http://a/p> 42 .\n",
            fails(1, "expected term, found Some('4')"),
        ),
        (
            b"<http://a/s> _:p <http://a/o> .\n",
            fails(1, "expected '<', found Some('_')"),
        ),
        (
            b"_x <http://a/p> <http://a/o> .\n",
            fails(1, "expected ':', found Some('x')"),
        ),
        (
            b"_: <http://a/p> <http://a/o> .\n",
            fails(1, "empty blank node label"),
        ),
        (
            b"<http://a/s> <http://a/p> \"a\"@ .\n",
            fails(1, "empty language tag"),
        ),
        (
            b"<http://a/s> <http://a/p> \"a\"^<http://x/dt> .\n",
            fails(1, "expected '^', found Some('<')"),
        ),
        (
            b"<http://a/s> <http://a/p> \"a\"^^<http://x/dt .\n",
            fails(1, "unterminated IRI"),
        ),
        (
            b"<http://a/s>",
            fails(1, "expected '<', found None"),
        ),
        // The first error stops the document, on its own line number.
        (
            b"# one\n<http://a/s> <http://a/p> <http://a/o> .\n\n<oops\n<http://a/s> <http://a/p> x .\n",
            fails(4, "unterminated IRI"),
        ),
    ];
    for (doc, want) in &cases {
        let shown = String::from_utf8_lossy(doc);
        assert_eq!(&parse(doc), want, "{shown:?}");
        let line = doc.strip_suffix(b"\n").unwrap_or(doc);
        let Ok(line) = std::str::from_utf8(line) else {
            continue;
        };
        if !line.is_empty() && !line.contains('\n') {
            let one = parse_line(line.trim_end_matches('\r'), 1)
                .map(|t| t.into_iter().collect::<Vec<_>>())
                .map_err(|e| (e.line, e.message));
            assert_eq!(&one, want, "parse_line {shown:?}");
        }
    }
}
