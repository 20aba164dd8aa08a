//! Recursive-descent parser for the SPARQL subset.
//!
//! Grammar (SPARQL 1.0, restricted to the benchmark's feature set):
//!
//! ```text
//! Query          := Prologue (SelectQuery | AskQuery)
//! Prologue       := (PREFIX PNAME_NS IRIREF)*
//! SelectQuery    := SELECT DISTINCT? (Var+ | '*') WhereClause Modifiers
//! AskQuery       := ASK WhereClause
//! WhereClause    := WHERE? GroupGraphPattern
//! GroupGraphPattern := '{' TriplesBlock? ((GraphPatternNotTriples | Filter) '.'? TriplesBlock?)* '}'
//! GraphPatternNotTriples := OPTIONAL GroupGraphPattern
//!                         | GroupGraphPattern (UNION GroupGraphPattern)*
//! TriplesBlock   := TriplesSameSubject ('.' TriplesBlock?)?
//! TriplesSameSubject := VarOrTerm PropertyListNotEmpty
//! PropertyListNotEmpty := Verb ObjectList (';' (Verb ObjectList)?)*
//! ObjectList     := VarOrTerm (',' VarOrTerm)*
//! Modifiers      := (ORDER BY OrderKey+)? (LIMIT INT)? (OFFSET INT)?  -- any LIMIT/OFFSET order
//! Expression     := Or; Or := And ('||' And)*; And := Rel ('&&' Rel)*
//! Rel            := Unary (CmpOp Unary)?
//! Unary          := '!' Unary | '(' Expression ')' | BOUND '(' Var ')'
//!                 | Var | Literal | IRIref
//! ```

use std::fmt;

use sp2b_rdf::vocab::{self, rdf, xsd};
use sp2b_rdf::{Iri, Literal, Term};

use crate::ast::*;
use crate::lexer::{tokenize, LexError, Punct, Token};

/// Parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SPARQL parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.to_string(),
        }
    }
}

/// `(order keys, limit, offset)` of a solution-modifier clause.
type Modifiers = (Vec<OrderKey>, Option<u64>, Option<u64>);

/// Parses a query string into the AST.
///
/// The benchmark's standard prefixes (`rdf:`, `rdfs:`, `foaf:`, `swrc:`,
/// `dc:`, `dcterms:`, `bench:`, `xsd:`, `person:`) are pre-declared;
/// `PREFIX` clauses in the query extend/override them.
pub fn parse(input: &str) -> Result<Query, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        prefixes: default_prefixes(),
    };
    let q = p.query()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after query"));
    }
    Ok(q)
}

fn default_prefixes() -> Vec<(String, String)> {
    vocab::PREFIXES
        .iter()
        .map(|(p, ns)| ((*p).to_owned(), (*ns).to_owned()))
        .collect()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: Vec<(String, String)>,
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> ParseError {
        let near = match self.tokens.get(self.pos) {
            Some(t) => format!(" near token #{} ({t:?})", self.pos),
            None => " at end of input".to_owned(),
        };
        ParseError {
            message: format!("{}{}", message.into(), near),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == Some(&Token::Punct(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected {p:?}")))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k)) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}")))
        }
    }

    fn expand_prefixed(&self, prefix: &str, local: &str) -> Result<String, ParseError> {
        // Later declarations shadow earlier ones.
        self.prefixes
            .iter()
            .rev()
            .find(|(p, _)| p == prefix)
            .map(|(_, ns)| format!("{ns}{local}"))
            .ok_or_else(|| self.err(format!("undeclared prefix '{prefix}:'")))
    }

    // -- query level --------------------------------------------------------

    fn query(&mut self) -> Result<Query, ParseError> {
        self.prologue()?;
        if self.eat_keyword("SELECT") {
            self.select_rest()
        } else if self.eat_keyword("ASK") {
            let pattern = self.where_clause()?;
            Ok(Query {
                form: QueryForm::Ask,
                aggregates: Vec::new(),
                group_by: Vec::new(),
                pattern,
                order_by: Vec::new(),
                limit: None,
                offset: None,
            })
        } else {
            Err(self.err("expected SELECT or ASK"))
        }
    }

    fn prologue(&mut self) -> Result<(), ParseError> {
        while self.eat_keyword("PREFIX") {
            let prefix = match self.bump() {
                Some(Token::PrefixedName(p, local)) if local.is_empty() => p,
                other => return Err(self.err(format!("expected prefix name, got {other:?}"))),
            };
            let ns = match self.bump() {
                Some(Token::IriRef(iri)) => iri,
                other => return Err(self.err(format!("expected IRI, got {other:?}"))),
            };
            self.prefixes.push((prefix, ns));
        }
        Ok(())
    }

    fn select_rest(&mut self) -> Result<Query, ParseError> {
        let distinct = self.eat_keyword("DISTINCT");
        let mut variables = Vec::new();
        let mut aggregates = Vec::new();
        if self.eat_punct(Punct::Star) {
            // `SELECT *`: resolved to all pattern variables at translation.
        } else {
            loop {
                match self.peek() {
                    Some(Token::Var(_)) => {
                        if let Some(Token::Var(v)) = self.bump() {
                            variables.push(v);
                        }
                    }
                    Some(Token::Punct(Punct::LParen)) => {
                        aggregates.push(self.aggregate()?);
                    }
                    _ => break,
                }
            }
            if variables.is_empty() && aggregates.is_empty() {
                return Err(self.err("SELECT needs at least one variable, aggregate or '*'"));
            }
        }
        let pattern = self.where_clause()?;
        let group_by = self.group_by_clause()?;
        let (order_by, limit, offset) = self.modifiers()?;
        if !aggregates.is_empty() {
            // The aggregation extension: plain projected variables must be
            // grouping keys (SPARQL 1.1 projection restriction).
            for v in &variables {
                if !group_by.contains(v) {
                    return Err(self.err(format!(
                        "variable ?{v} is projected next to an aggregate but not in GROUP BY"
                    )));
                }
            }
        } else if !group_by.is_empty() {
            return Err(self.err("GROUP BY without an aggregate in the projection"));
        }
        Ok(Query {
            form: QueryForm::Select {
                distinct,
                variables,
            },
            aggregates,
            group_by,
            pattern,
            order_by,
            limit,
            offset,
        })
    }

    /// `( COUNT ( DISTINCT? ( '*' | Var ) ) AS Var )`.
    fn aggregate(&mut self) -> Result<crate::ast::Aggregate, ParseError> {
        self.expect_punct(Punct::LParen)?;
        self.expect_keyword("COUNT")?;
        self.expect_punct(Punct::LParen)?;
        let distinct = self.eat_keyword("DISTINCT");
        let target = if self.eat_punct(Punct::Star) {
            None
        } else {
            match self.bump() {
                Some(Token::Var(v)) => Some(v),
                other => {
                    return Err(self.err(format!("COUNT expects '*' or a variable, got {other:?}")))
                }
            }
        };
        self.expect_punct(Punct::RParen)?;
        self.expect_keyword("AS")?;
        let alias = match self.bump() {
            Some(Token::Var(v)) => v,
            other => return Err(self.err(format!("AS expects a variable, got {other:?}"))),
        };
        self.expect_punct(Punct::RParen)?;
        Ok(crate::ast::Aggregate {
            target,
            distinct,
            alias,
        })
    }

    /// `GROUP BY ?v+`, if present.
    fn group_by_clause(&mut self) -> Result<Vec<String>, ParseError> {
        // Lookahead: GROUP must be followed by BY (defensive; GROUP is a
        // reserved keyword in this grammar anyway).
        if !matches!(self.peek(), Some(Token::Keyword(k)) if k == "GROUP") {
            return Ok(Vec::new());
        }
        self.pos += 1;
        self.expect_keyword("BY")?;
        let mut vars = Vec::new();
        while let Some(Token::Var(_)) = self.peek() {
            if let Some(Token::Var(v)) = self.bump() {
                vars.push(v);
            }
        }
        if vars.is_empty() {
            return Err(self.err("GROUP BY needs at least one variable"));
        }
        Ok(vars)
    }

    fn where_clause(&mut self) -> Result<GroupPattern, ParseError> {
        let _ = self.eat_keyword("WHERE");
        self.group_graph_pattern()
    }

    fn modifiers(&mut self) -> Result<Modifiers, ParseError> {
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                match self.peek() {
                    Some(Token::Var(_)) => {
                        if let Some(Token::Var(v)) = self.bump() {
                            order_by.push(OrderKey {
                                expression: Expression::Var(v),
                                descending: false,
                            });
                        }
                    }
                    Some(Token::Keyword(k)) if k == "ASC" || k == "DESC" => {
                        let descending = k == "DESC";
                        self.pos += 1;
                        self.expect_punct(Punct::LParen)?;
                        let expression = self.expression()?;
                        self.expect_punct(Punct::RParen)?;
                        order_by.push(OrderKey {
                            expression,
                            descending,
                        });
                    }
                    _ => break,
                }
            }
            if order_by.is_empty() {
                return Err(self.err("ORDER BY needs at least one key"));
            }
        }
        let mut limit = None;
        let mut offset = None;
        loop {
            if self.eat_keyword("LIMIT") {
                limit = Some(self.count("LIMIT")?);
            } else if self.eat_keyword("OFFSET") {
                offset = Some(self.count("OFFSET")?);
            } else {
                break;
            }
        }
        Ok((order_by, limit, offset))
    }

    /// The count after `LIMIT` or `OFFSET`: an integer in `u64`'s range.
    fn count(&mut self, clause: &str) -> Result<u64, ParseError> {
        match self.bump() {
            Some(Token::Integer(n)) => u64::try_from(n)
                .map_err(|_| self.err(format!("{clause} count {n} is out of range"))),
            other => Err(self.err(format!("expected {clause} count, got {other:?}"))),
        }
    }

    // -- graph patterns -----------------------------------------------------

    fn group_graph_pattern(&mut self) -> Result<GroupPattern, ParseError> {
        self.expect_punct(Punct::LBrace)?;
        let mut elements = Vec::new();
        loop {
            match self.peek() {
                Some(Token::Punct(Punct::RBrace)) => {
                    self.pos += 1;
                    return Ok(GroupPattern { elements });
                }
                Some(Token::Keyword(k)) if k == "OPTIONAL" => {
                    self.pos += 1;
                    let inner = self.group_graph_pattern()?;
                    elements.push(GroupElement::Optional(inner));
                    let _ = self.eat_punct(Punct::Dot);
                }
                Some(Token::Keyword(k)) if k == "FILTER" => {
                    self.pos += 1;
                    let expr = self.bracketted_or_builtin()?;
                    elements.push(GroupElement::Filter(expr));
                    let _ = self.eat_punct(Punct::Dot);
                }
                Some(Token::Punct(Punct::LBrace)) => {
                    // Nested group, possibly a UNION chain.
                    let first = self.group_graph_pattern()?;
                    let mut branches = vec![first];
                    while self.eat_keyword("UNION") {
                        branches.push(self.group_graph_pattern()?);
                    }
                    if branches.len() == 1 {
                        elements.push(GroupElement::Group(branches.pop().expect("one branch")));
                    } else {
                        elements.push(GroupElement::Union(branches));
                    }
                    let _ = self.eat_punct(Punct::Dot);
                }
                Some(_) => {
                    let triples = self.triples_block()?;
                    if triples.is_empty() {
                        return Err(self.err("expected graph pattern"));
                    }
                    elements.push(GroupElement::Triples(triples));
                }
                None => return Err(self.err("unterminated group (missing '}')")),
            }
        }
    }

    fn triples_block(&mut self) -> Result<Vec<TriplePattern>, ParseError> {
        let mut patterns = Vec::new();
        loop {
            // Stop at group delimiters / keywords.
            match self.peek() {
                Some(Token::Punct(Punct::RBrace) | Token::Punct(Punct::LBrace)) | None => break,
                Some(Token::Keyword(k)) if k == "OPTIONAL" || k == "FILTER" => break,
                _ => {}
            }
            let subject = self.var_or_term()?;
            self.property_list(&subject, &mut patterns)?;
            if !self.eat_punct(Punct::Dot) {
                break;
            }
        }
        Ok(patterns)
    }

    fn property_list(
        &mut self,
        subject: &TermOrVar,
        out: &mut Vec<TriplePattern>,
    ) -> Result<(), ParseError> {
        loop {
            let predicate = self.verb()?;
            loop {
                let object = self.var_or_term()?;
                out.push(TriplePattern {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            if !self.eat_punct(Punct::Semicolon) {
                return Ok(());
            }
            // Allow a dangling ';' before '.'.
            if matches!(
                self.peek(),
                Some(Token::Punct(Punct::Dot) | Token::Punct(Punct::RBrace))
            ) {
                return Ok(());
            }
        }
    }

    fn verb(&mut self) -> Result<TermOrVar, ParseError> {
        if matches!(self.peek(), Some(Token::Keyword(k)) if k == "A") {
            self.pos += 1;
            return Ok(TermOrVar::Term(Term::iri(rdf::TYPE)));
        }
        self.var_or_term()
    }

    fn var_or_term(&mut self) -> Result<TermOrVar, ParseError> {
        match self.bump() {
            Some(Token::Var(v)) => Ok(TermOrVar::Var(v)),
            Some(Token::IriRef(iri)) => Ok(TermOrVar::Term(Term::Iri(Iri::new(iri)))),
            Some(Token::PrefixedName(p, l)) => Ok(TermOrVar::Term(Term::Iri(Iri::new(
                self.expand_prefixed(&p, &l)?,
            )))),
            Some(Token::BlankNode(label)) => Ok(TermOrVar::Term(Term::blank(label))),
            Some(Token::String(s)) => Ok(TermOrVar::Term(self.literal_rest(s)?)),
            Some(Token::Integer(n)) => Ok(TermOrVar::Term(self.integer(n)?)),
            other => Err(self.err(format!("expected term or variable, got {other:?}"))),
        }
    }

    /// An `xsd:integer` term: one that fits an `i64`.
    fn integer(&self, n: i128) -> Result<Term, ParseError> {
        let n = i64::try_from(n).map_err(|_| self.err("integer out of range"))?;
        Ok(Term::Literal(Literal::integer(n)))
    }

    /// After a string token: optional `^^dt` or `@lang`.
    fn literal_rest(&mut self, lexical: String) -> Result<Term, ParseError> {
        match self.peek() {
            Some(Token::DatatypeMarker) => {
                self.pos += 1;
                let dt = match self.bump() {
                    Some(Token::IriRef(iri)) => iri,
                    Some(Token::PrefixedName(p, l)) => self.expand_prefixed(&p, &l)?,
                    other => return Err(self.err(format!("expected datatype IRI, got {other:?}"))),
                };
                Ok(Term::Literal(Literal::typed(lexical, Iri::new(dt))))
            }
            Some(Token::LangTag(_)) => {
                if let Some(Token::LangTag(lang)) = self.bump() {
                    let mut lit = Literal::plain(lexical);
                    lit.language = Some(lang);
                    Ok(Term::Literal(lit))
                } else {
                    unreachable!("peeked LangTag")
                }
            }
            _ => Ok(Term::Literal(Literal::plain(lexical))),
        }
    }

    // -- expressions ----------------------------------------------------

    fn bracketted_or_builtin(&mut self) -> Result<Expression, ParseError> {
        match self.peek() {
            Some(Token::Punct(Punct::LParen)) => {
                self.pos += 1;
                let e = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            Some(Token::Keyword(k)) if k == "BOUND" => self.unary(),
            Some(Token::Punct(Punct::Bang)) => self.unary(),
            _ => Err(self.err("expected FILTER expression")),
        }
    }

    fn expression(&mut self) -> Result<Expression, ParseError> {
        self.or_expression()
    }

    fn or_expression(&mut self) -> Result<Expression, ParseError> {
        let mut left = self.and_expression()?;
        while self.eat_punct(Punct::OrOr) {
            let right = self.and_expression()?;
            left = Expression::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expression(&mut self) -> Result<Expression, ParseError> {
        let mut left = self.relational()?;
        while self.eat_punct(Punct::AndAnd) {
            let right = self.relational()?;
            left = Expression::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn relational(&mut self) -> Result<Expression, ParseError> {
        let left = self.unary()?;
        let op = match self.peek() {
            Some(Token::Punct(Punct::Eq)) => Some(CmpOp::Eq),
            Some(Token::Punct(Punct::Ne)) => Some(CmpOp::Ne),
            Some(Token::Punct(Punct::Lt)) => Some(CmpOp::Lt),
            Some(Token::Punct(Punct::Le)) => Some(CmpOp::Le),
            Some(Token::Punct(Punct::Gt)) => Some(CmpOp::Gt),
            Some(Token::Punct(Punct::Ge)) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.unary()?;
            Ok(Expression::Compare(op, Box::new(left), Box::new(right)))
        } else {
            Ok(left)
        }
    }

    fn unary(&mut self) -> Result<Expression, ParseError> {
        match self.peek().cloned() {
            Some(Token::Punct(Punct::Bang)) => {
                self.pos += 1;
                Ok(Expression::Not(Box::new(self.unary()?)))
            }
            Some(Token::Punct(Punct::LParen)) => {
                self.pos += 1;
                let e = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            Some(Token::Keyword(k)) if k == "BOUND" => {
                self.pos += 1;
                self.expect_punct(Punct::LParen)?;
                let v = match self.bump() {
                    Some(Token::Var(v)) => v,
                    other => {
                        return Err(self.err(format!("bound() needs a variable, got {other:?}")))
                    }
                };
                self.expect_punct(Punct::RParen)?;
                Ok(Expression::Bound(v))
            }
            Some(Token::Keyword(k)) if k == "TRUE" || k == "FALSE" => {
                self.pos += 1;
                Ok(Expression::Constant(Term::Literal(Literal::typed(
                    k.to_lowercase(),
                    Iri::new(format!("{}boolean", xsd::NS)),
                ))))
            }
            Some(Token::Var(v)) => {
                self.pos += 1;
                Ok(Expression::Var(v))
            }
            Some(Token::Integer(n)) => {
                self.pos += 1;
                Ok(Expression::Constant(self.integer(n)?))
            }
            Some(Token::String(s)) => {
                self.pos += 1;
                Ok(Expression::Constant(self.literal_rest(s)?))
            }
            Some(Token::IriRef(iri)) => {
                self.pos += 1;
                Ok(Expression::Constant(Term::iri(iri)))
            }
            Some(Token::PrefixedName(p, l)) => {
                self.pos += 1;
                let iri = self.expand_prefixed(&p, &l)?;
                Ok(Expression::Constant(Term::iri(iri)))
            }
            other => Err(self.err(format!("unexpected token in expression: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_q1_shape() {
        let q = parse(
            r#"SELECT ?yr WHERE {
                ?journal rdf:type bench:Journal .
                ?journal dc:title "Journal 1 (1940)"^^xsd:string .
                ?journal dcterms:issued ?yr
            }"#,
        )
        .unwrap();
        assert!(
            matches!(q.form, QueryForm::Select { distinct: false, ref variables } if variables == &["yr"])
        );
        match &q.pattern.elements[0] {
            GroupElement::Triples(ps) => {
                assert_eq!(ps.len(), 3);
                assert_eq!(ps[0].predicate, TermOrVar::Term(Term::iri(rdf::TYPE)));
            }
            other => panic!("expected triples, got {other:?}"),
        }
    }

    #[test]
    fn parses_optional_with_filter() {
        let q = parse(
            "SELECT ?a WHERE { ?a <http://x/p> ?b OPTIONAL { ?b <http://x/q> ?c FILTER (?c < 5) } FILTER (!bound(?c)) }",
        )
        .unwrap();
        assert_eq!(q.pattern.elements.len(), 3);
        assert!(matches!(q.pattern.elements[1], GroupElement::Optional(_)));
        assert!(matches!(q.pattern.elements[2], GroupElement::Filter(_)));
    }

    #[test]
    fn parses_union() {
        let q =
            parse("SELECT ?x WHERE { { ?x <http://a> ?y } UNION { ?x <http://b> ?y } }").unwrap();
        match &q.pattern.elements[0] {
            GroupElement::Union(branches) => assert_eq!(branches.len(), 2),
            other => panic!("expected union, got {other:?}"),
        }
    }

    #[test]
    fn slice_counts_span_u64_and_terms_stay_i64() {
        let max = u64::MAX;
        let q = parse(&format!(
            "SELECT ?s WHERE {{ ?s ?p ?o }} LIMIT {max} OFFSET {max}"
        ))
        .unwrap();
        assert_eq!((q.limit, q.offset), (Some(max), Some(max)));
        let past = u128::from(max) + 1;
        assert!(parse(&format!("SELECT ?s WHERE {{ ?s ?p ?o }} LIMIT {past}")).is_err());
        assert!(parse("SELECT ?s WHERE { ?s ?p ?o } LIMIT -1").is_err());
        let err = parse(&format!("SELECT ?s WHERE {{ ?s ?p {max} }}")).unwrap_err();
        assert!(err.message.contains("integer out of range"), "{err:?}");
        assert!(parse("SELECT ?s WHERE { ?s ?p -9223372036854775808 }").is_ok());
    }

    #[test]
    fn parses_modifiers() {
        let q = parse("SELECT ?ee WHERE { ?p rdfs:seeAlso ?ee } ORDER BY ?ee LIMIT 10 OFFSET 50")
            .unwrap();
        assert_eq!(q.order_by.len(), 1);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(50));
    }

    #[test]
    fn parses_desc_order() {
        let q = parse("SELECT ?x WHERE { ?x <http://p> ?y } ORDER BY DESC(?y) ?x").unwrap();
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].descending);
        assert!(!q.order_by[1].descending);
    }

    #[test]
    fn parses_ask() {
        let q = parse("ASK { person:John_Q_Public rdf:type foaf:Person }").unwrap();
        assert!(q.is_ask());
    }

    #[test]
    fn parses_prefix_declarations() {
        let q = parse("PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:p ex:o }").unwrap();
        match &q.pattern.elements[0] {
            GroupElement::Triples(ps) => {
                assert_eq!(
                    ps[0].predicate,
                    TermOrVar::Term(Term::iri("http://example.org/p"))
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn undeclared_prefix_fails() {
        assert!(parse("SELECT ?x WHERE { ?x nope:p ?y }").is_err());
    }

    #[test]
    fn property_list_sugar() {
        let q =
            parse("SELECT ?t WHERE { ?d rdf:type bench:Article ; dc:title ?t , ?t2 . }").unwrap();
        match &q.pattern.elements[0] {
            GroupElement::Triples(ps) => {
                assert_eq!(ps.len(), 3);
                assert!(ps.iter().all(|p| p.subject == TermOrVar::Var("d".into())));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn complex_filter_precedence() {
        let q = parse(
            "SELECT ?a WHERE { ?a <http://p> ?b FILTER (?a != ?b && ?b != <http://x> || bound(?a)) }",
        )
        .unwrap();
        let GroupElement::Filter(e) = &q.pattern.elements[1] else {
            panic!("expected filter");
        };
        // || binds loosest: Or(And(Ne, Ne), Bound).
        assert!(matches!(e, Expression::Or(a, _) if matches!(**a, Expression::And(_, _))));
    }

    #[test]
    fn nested_optionals_parse() {
        // Q7's shape: OPTIONAL containing OPTIONAL containing FILTER.
        let q = parse(
            "SELECT DISTINCT ?t WHERE {
                ?d <http://p> ?t
                OPTIONAL {
                    ?d3 <http://q> ?d
                    OPTIONAL { ?d4 <http://q> ?d3 }
                    FILTER (!bound(?d4))
                }
                FILTER (!bound(?d3))
            }",
        )
        .unwrap();
        let GroupElement::Optional(inner) = &q.pattern.elements[1] else {
            panic!("expected optional");
        };
        assert!(inner
            .elements
            .iter()
            .any(|e| matches!(e, GroupElement::Optional(_))));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("SELECT WHERE {}").is_err());
        assert!(parse("SELECT ?x WHERE { ?x }").is_err());
        assert!(parse("SELECT ?x { ?x <http://p> ?y } extra").is_err());
    }

    #[test]
    fn select_star() {
        let q = parse("SELECT * WHERE { ?x <http://p> ?y }").unwrap();
        assert!(matches!(q.form, QueryForm::Select { ref variables, .. } if variables.is_empty()));
    }
}
