//! The SP²Bench data generator (Section IV, Figure 4).
//!
//! Simulates DBLP year by year from [`params::FIRST_YEAR`]: per year it
//! derives document-class counts from the logistic growth curves, builds
//! the author roster (distinct/new author ratios, power-law publication
//! targets), creates venues before the publications that reference them,
//! assigns attributes according to the Table IX probability matrix,
//! wires up the citation system, and streams every triple to a
//! [`TripleSink`].
//!
//! Guarantees, mirroring the paper:
//! * **deterministic** — a `(seed, limit)` pair uniquely identifies the
//!   output, bit for bit, on every platform;
//! * **incremental** — smaller documents are prefixes of larger ones
//!   (same seed), so a 10k document is contained in the 1M document;
//! * **consistent** — any referenced venue, person, bag or citation target
//!   is emitted before the reference, so truncation at a triple limit
//!   never dangles;
//! * **constant memory** in output size, up to the author pool and the
//!   compact document registry needed for citations and re-selection.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use sp2b_rdf::vocab::{bench, dc, dcterms, foaf, person, rdf, rdfs, swrc};
use sp2b_rdf::{Graph, Iri, Literal, Subject, Term, Triple};

use crate::authors::{AuthorPool, PersonId, YearRoster, ERDOES};
use crate::names;
use crate::params::{self, Attribute, DocClass};
use crate::rng::Rng;
use crate::sink::{GraphSink, NtriplesSink, TripleSink};
use crate::stats::{GeneratorStats, YearRecord};

/// When to stop generating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limit {
    /// Stop after exactly this many triples ("triple count limit").
    Triples(u64),
    /// Generate all years up to and including this one ("year limit").
    Year(i32),
}

/// Generator configuration. The paper's two parameters (triple count or
/// target year) plus the seed and a stats switch.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// PRNG seed; the default reproduces the reference documents.
    pub seed: u64,
    /// Output size limit.
    pub limit: Limit,
    /// Collect per-year records and histograms (Figures 2a–2c). Off by
    /// default: it costs memory proportional to the author roster.
    pub detailed_stats: bool,
}

impl Config {
    /// A triple-limited configuration with the default seed.
    pub fn triples(n: u64) -> Self {
        Config {
            seed: Rng::DEFAULT_SEED,
            limit: Limit::Triples(n),
            detailed_stats: false,
        }
    }

    /// A year-limited configuration with the default seed.
    pub fn up_to_year(year: i32) -> Self {
        Config {
            seed: Rng::DEFAULT_SEED,
            limit: Limit::Year(year),
            detailed_stats: false,
        }
    }

    /// Enables detailed per-year statistics.
    pub fn with_detailed_stats(mut self) -> Self {
        self.detailed_stats = true;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Internal control flow: generation stops on the triple limit or an I/O
/// error; the year limit terminates the year loop normally.
enum Stop {
    Limit,
    Io(io::Error),
}

type GenResult = Result<(), Stop>;

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        Stop::Io(e)
    }
}

/// Packed registry entry: document class in the high bits, per-class
/// sequence number in the low bits.
#[derive(Debug, Clone, Copy)]
struct DocRef(u64);

impl DocRef {
    fn new(class: DocClass, seq: u64) -> Self {
        DocRef(((class.index() as u64) << 56) | seq)
    }

    fn class(self) -> DocClass {
        DocClass::ALL[(self.0 >> 56) as usize]
    }

    fn seq(self) -> u64 {
        self.0 & ((1 << 56) - 1)
    }

    fn uri(self) -> String {
        document_uri(self.class(), self.seq())
    }
}

/// The instance-URI scheme. Kept in one place so citations can reconstruct
/// URIs from compact registry entries.
fn document_uri(class: DocClass, seq: u64) -> String {
    let (path, name) = match class {
        DocClass::Article => ("articles", "Article"),
        DocClass::Inproceedings => ("inprocs", "Inproceeding"),
        DocClass::Proceedings => ("procs", "Proceeding"),
        DocClass::Book => ("books", "Book"),
        DocClass::Incollection => ("incolls", "Incollection"),
        DocClass::PhdThesis => ("phds", "Phdthesis"),
        DocClass::MastersThesis => ("masters", "Mastersthesis"),
        DocClass::Www => ("wwws", "Www"),
    };
    format!("http://localhost/publications/{path}/{name}{seq}")
}

/// URI of journal `i` of `year`.
fn journal_uri(i: u64, year: i32) -> String {
    format!("http://localhost/publications/journals/Journal{i}/{year}")
}

/// The `bench:` class IRI of a document class.
fn class_iri(class: DocClass) -> &'static str {
    match class {
        DocClass::Article => bench::ARTICLE,
        DocClass::Inproceedings => bench::INPROCEEDINGS,
        DocClass::Proceedings => bench::PROCEEDINGS,
        DocClass::Book => bench::BOOK,
        DocClass::Incollection => bench::INCOLLECTION,
        DocClass::PhdThesis => bench::PHD_THESIS,
        DocClass::MastersThesis => bench::MASTERS_THESIS,
        DocClass::Www => bench::WWW,
    }
}

/// The streaming generator. Create with [`Generator::new`], drive with
/// [`Generator::run`], or use the [`generate_graph`] /
/// [`generate_to_writer`] / [`generate_to_path`] conveniences.
pub struct Generator {
    cfg: Config,
    rng: Rng,
    pool: AuthorPool,
    stats: GeneratorStats,
    /// All cite-able documents generated so far (compact form).
    registry: Vec<DocRef>,
    /// Pólya urn over `registry` indices: one entry per received citation,
    /// so preferential attachment yields the incoming-citation power law.
    citation_urn: Vec<u32>,
    /// Per-class instance counters (1-based sequence numbers).
    class_seq: [u64; 8],
    /// Global counter for reference-bag blank nodes.
    bag_seq: u64,
    /// Venues of the current year.
    year_journals: Vec<(u64, String)>, // (journal number, title)
    year_procs: Vec<(u64, String)>, // (proceedings seq, conference title)
    year_books: Vec<u64>,           // book seqs
    /// Erdős activity counters for the current year.
    erdoes_pubs_left: u64,
    erdoes_edits_left: u64,
    /// Detailed per-year collection (when enabled).
    year_author_counts: HashMap<PersonId, u32>,
    year_record: YearRecord,
}

impl Generator {
    /// Creates a generator for the given configuration.
    pub fn new(cfg: Config) -> Self {
        Generator {
            cfg,
            rng: Rng::new(cfg.seed),
            pool: AuthorPool::new(),
            stats: GeneratorStats::default(),
            registry: Vec::new(),
            citation_urn: Vec::new(),
            class_seq: [0; 8],
            bag_seq: 0,
            year_journals: Vec::new(),
            year_procs: Vec::new(),
            year_books: Vec::new(),
            erdoes_pubs_left: 0,
            erdoes_edits_left: 0,
            year_author_counts: HashMap::new(),
            year_record: YearRecord::default(),
        }
    }

    /// Runs the simulation, pushing every triple into `sink`. Returns the
    /// run's statistics (Table VIII data).
    pub fn run<S: TripleSink>(mut self, sink: &mut S) -> io::Result<GeneratorStats> {
        let result = self.generate(sink);
        match result {
            Ok(()) | Err(Stop::Limit) => {
                sink.finish()?;
                self.stats.bytes = sink.bytes_written();
                self.stats.distinct_authors = self.pool.distinct_authors();
                Ok(self.stats)
            }
            Err(Stop::Io(e)) => Err(e),
        }
    }

    // -- driver ------------------------------------------------------------

    fn generate<S: TripleSink>(&mut self, sink: &mut S) -> GenResult {
        self.emit_schema(sink)?;
        let mut year = params::FIRST_YEAR;
        loop {
            if let Limit::Year(last) = self.cfg.limit {
                if year > last {
                    return Ok(());
                }
            }
            self.generate_year(sink, year)?;
            year += 1;
            // Safety net: a triple limit is always reached long before
            // this; a runaway year limit is a caller bug.
            if year > 2500 {
                return Ok(());
            }
        }
    }

    /// The RDF schema layer: every document class is a subclass of
    /// `foaf:Document` (queried by Q6/Q7's `?class rdfs:subClassOf
    /// foaf:Document` patterns).
    fn emit_schema<S: TripleSink>(&mut self, sink: &mut S) -> GenResult {
        let mut classes: Vec<&str> = vec![bench::JOURNAL];
        classes.extend(DocClass::ALL.iter().map(|&c| class_iri(c)));
        for class in classes {
            self.emit(
                sink,
                Triple::new(
                    Subject::iri(class),
                    Iri::new(rdfs::SUB_CLASS_OF),
                    Term::iri(foaf::DOCUMENT),
                ),
            )?;
        }
        Ok(())
    }

    fn generate_year<S: TripleSink>(&mut self, sink: &mut S, year: i32) -> GenResult {
        self.stats.end_year = year;
        self.year_journals.clear();
        self.year_procs.clear();
        self.year_books.clear();
        self.year_author_counts.clear();
        if self.cfg.detailed_stats {
            self.year_record = YearRecord {
                year,
                ..Default::default()
            };
        }

        // Class counts for this year (Section III-B).
        let mut n_article = params::F_ARTICLE.count(year);
        let mut n_inproc = params::F_INPROC.count(year);
        let n_incoll = params::F_INCOLL.count(year);
        let n_book = params::F_BOOK.count(year);
        // The unsteady classes appear only from the 1980s on (Table VIII).
        // The draws still happen unconditionally so the random stream —
        // and with it every other class — is independent of the gate.
        let draw_phd = self.rng.below(params::F_PHD_MAX + 1);
        let draw_masters = self.rng.below(params::F_MASTERS_MAX + 1);
        let draw_www = self.rng.below(params::F_WWW_MAX + 1);
        let unsteady_active = year >= params::RANDOM_CLASSES_FIRST_YEAR;
        let n_phd = if unsteady_active { draw_phd } else { 0 };
        let n_masters = if unsteady_active { draw_masters } else { 0 };
        let n_www = if unsteady_active { draw_www } else { 0 };
        let mut n_journal = params::F_JOURNAL.count(year);
        let mut n_proc = params::F_PROC.count(year);
        // Referential consistency: articles need a journal, inproceedings
        // need a conference.
        if n_article > 0 {
            n_journal = n_journal.max(1);
        }
        if n_inproc > 0 {
            n_proc = n_proc.max(1);
        }
        // Early years: suppress isolated venues (no publications at all).
        if n_article == 0 && n_journal > 0 && year < 1940 {
            n_journal = 0;
        }
        // Articles/inproceedings are "closely coupled" to their venues —
        // with zero venues the publications cannot exist either.
        if n_journal == 0 {
            n_article = 0;
        }
        if n_proc == 0 {
            n_inproc = 0;
        }

        // Erdős' scripted activity (Section IV).
        let erdoes_active = (params::ERDOES_FIRST_YEAR..=params::ERDOES_LAST_YEAR).contains(&year);
        self.erdoes_pubs_left = if erdoes_active {
            params::ERDOES_PUBLICATIONS_PER_YEAR
        } else {
            0
        };
        self.erdoes_edits_left = if erdoes_active {
            params::ERDOES_EDITORSHIPS_PER_YEAR
        } else {
            0
        };

        // Author roster sized from the expected author-attribute count.
        let publication_counts = [
            (DocClass::Article, n_article),
            (DocClass::Inproceedings, n_inproc),
            (DocClass::Book, n_book),
            (DocClass::Incollection, n_incoll),
            (DocClass::PhdThesis, n_phd),
            (DocClass::MastersThesis, n_masters),
            (DocClass::Www, n_www),
        ];
        let docs_with_authors: f64 = publication_counts
            .iter()
            .map(|&(c, n)| n as f64 * params::attribute_probability(c, Attribute::Author))
            .sum();
        let expected_slots = docs_with_authors * params::d_auth(year).mu;
        let mut roster = if expected_slots >= 1.0 {
            Some(YearRoster::build(
                &mut self.pool,
                &mut self.rng,
                year,
                expected_slots,
            ))
        } else {
            None
        };
        if self.cfg.detailed_stats {
            self.year_record.new_authors = roster.as_ref().map_or(0, |r| r.new_members as u64);
        }

        // Venues first (consistency), then publications.
        for i in 1..=n_journal {
            self.emit_journal(sink, i, year)?;
        }
        for _ in 0..n_proc {
            self.emit_document(sink, DocClass::Proceedings, year, &mut roster)?;
        }
        for _ in 0..n_book {
            self.emit_document(sink, DocClass::Book, year, &mut roster)?;
        }
        for _ in 0..n_article {
            self.emit_document(sink, DocClass::Article, year, &mut roster)?;
        }
        for _ in 0..n_inproc {
            self.emit_document(sink, DocClass::Inproceedings, year, &mut roster)?;
        }
        for _ in 0..n_incoll {
            self.emit_document(sink, DocClass::Incollection, year, &mut roster)?;
        }
        for _ in 0..n_phd {
            self.emit_document(sink, DocClass::PhdThesis, year, &mut roster)?;
        }
        for _ in 0..n_masters {
            self.emit_document(sink, DocClass::MastersThesis, year, &mut roster)?;
        }
        for _ in 0..n_www {
            self.emit_document(sink, DocClass::Www, year, &mut roster)?;
        }

        if self.cfg.detailed_stats {
            let mut record = std::mem::take(&mut self.year_record);
            record.distinct_authors = self.year_author_counts.len() as u64;
            for &count in self.year_author_counts.values() {
                *record.publications_histogram.entry(count).or_insert(0) += 1;
            }
            self.stats.years.push(record);
        }
        Ok(())
    }

    // -- emission ----------------------------------------------------------

    fn emit<S: TripleSink>(&mut self, sink: &mut S, t: Triple) -> GenResult {
        sink.triple(&t)?;
        self.stats.triples += 1;
        if let Limit::Triples(max) = self.cfg.limit {
            if self.stats.triples >= max {
                return Err(Stop::Limit);
            }
        }
        Ok(())
    }

    fn emit_journal<S: TripleSink>(&mut self, sink: &mut S, number: u64, year: i32) -> GenResult {
        let uri = journal_uri(number, year);
        let title = format!("Journal {number} ({year})");
        self.stats.journals += 1;
        if self.cfg.detailed_stats {
            self.year_record.journals += 1;
        }
        // Record before emitting: a partial journal at the triple limit is
        // still a counted journal.
        self.year_journals.push((number, title.clone()));
        let s = Subject::iri(uri);
        self.emit(
            sink,
            Triple::new(s.clone(), Iri::new(rdf::TYPE), Term::iri(bench::JOURNAL)),
        )?;
        self.emit(
            sink,
            Triple::new(
                s.clone(),
                Iri::new(dc::TITLE),
                Term::Literal(Literal::string(title)),
            ),
        )?;
        self.emit(
            sink,
            Triple::new(
                s,
                Iri::new(dcterms::ISSUED),
                Term::Literal(Literal::integer(year as i64)),
            ),
        )?;
        Ok(())
    }

    /// Ensures a person's introduction triples exist before any reference.
    fn ensure_person<S: TripleSink>(&mut self, sink: &mut S, id: PersonId) -> GenResult {
        if self.pool.person(id).written {
            return Ok(());
        }
        self.pool.person_mut(id).written = true;
        let (subject, name) = self.person_subject_and_name(id);
        self.emit(
            sink,
            Triple::new(
                subject.clone(),
                Iri::new(rdf::TYPE),
                Term::iri(foaf::PERSON),
            ),
        )?;
        self.emit(
            sink,
            Triple::new(
                subject,
                Iri::new(foaf::NAME),
                Term::Literal(Literal::string(name)),
            ),
        )?;
        Ok(())
    }

    fn person_subject_and_name(&self, id: PersonId) -> (Subject, String) {
        let p = self.pool.person(id);
        if id == ERDOES {
            (Subject::iri(person::PAUL_ERDOES), p.name.clone())
        } else {
            (Subject::blank(p.label.clone()), p.name.clone())
        }
    }

    /// Emits one complete document of `class` for `year`.
    fn emit_document<S: TripleSink>(
        &mut self,
        sink: &mut S,
        class: DocClass,
        year: i32,
        roster: &mut Option<YearRoster>,
    ) -> GenResult {
        self.class_seq[class.index()] += 1;
        let seq = self.class_seq[class.index()];
        self.stats.class_counts[class.index()] += 1;
        if self.cfg.detailed_stats {
            self.year_record.class_counts[class.index()] += 1;
        }
        let uri = document_uri(class, seq);
        let subject = Subject::iri(uri);

        // Venue bookkeeping for later documents of this year.
        let conference: Option<(u64, String)> = match class {
            DocClass::Proceedings => {
                let title = format!("Conference {} ({year})", self.year_procs.len() as u64 + 1);
                self.year_procs.push((seq, title.clone()));
                Some((seq, title))
            }
            DocClass::Book => {
                self.year_books.push(seq);
                None
            }
            _ => None,
        };

        self.emit(
            sink,
            Triple::new(
                subject.clone(),
                Iri::new(rdf::TYPE),
                Term::iri(class_iri(class)),
            ),
        )?;

        // Pre-draw per-document venue assignment so booktitle and crossref
        // agree (an inproceedings' booktitle is its conference).
        let assigned_proc: Option<(u64, String)> =
            if class == DocClass::Inproceedings && !self.year_procs.is_empty() {
                let pick = self.rng.below(self.year_procs.len() as u64) as usize;
                Some(self.year_procs[pick].clone())
            } else {
                None
            };

        for attr in Attribute::ALL {
            let p = params::attribute_probability(class, attr);
            if p <= 0.0 || !self.rng.chance(p) {
                continue;
            }
            self.emit_attribute(
                sink,
                &subject,
                class,
                attr,
                year,
                roster,
                &conference,
                &assigned_proc,
            )?;
        }

        // The optional abstract enrichment (Section IV).
        if matches!(class, DocClass::Article | DocClass::Inproceedings)
            && self.rng.chance(params::ABSTRACT_PROBABILITY)
        {
            let words = params::ABSTRACT_WORDS
                .sample_count(&mut self.rng, 1, 400)
                .clamp(30, 400);
            let text = self.random_words(words as usize);
            self.emit(
                sink,
                Triple::new(
                    subject.clone(),
                    Iri::new(bench::ABSTRACT),
                    Term::Literal(Literal::string(text)),
                ),
            )?;
        }

        // Register cite-able documents after full emission (no self-cites,
        // no dangling citation targets on truncation).
        if matches!(
            class,
            DocClass::Article | DocClass::Inproceedings | DocClass::Book | DocClass::Incollection
        ) {
            self.registry.push(DocRef::new(class, seq));
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_attribute<S: TripleSink>(
        &mut self,
        sink: &mut S,
        subject: &Subject,
        class: DocClass,
        attr: Attribute,
        year: i32,
        roster: &mut Option<YearRoster>,
        conference: &Option<(u64, String)>,
        assigned_proc: &Option<(u64, String)>,
    ) -> GenResult {
        match attr {
            Attribute::Title => {
                let title = match (class, conference) {
                    (DocClass::Proceedings, Some((_, t))) => t.clone(),
                    _ => self.title_words(),
                };
                self.emit_string(sink, subject, dc::TITLE, title)
            }
            Attribute::Year => self.emit(
                sink,
                Triple::new(
                    subject.clone(),
                    Iri::new(dcterms::ISSUED),
                    Term::Literal(Literal::integer(year as i64)),
                ),
            ),
            Attribute::Author => self.emit_authors(sink, subject, year, roster),
            Attribute::Editor => self.emit_editors(sink, subject, year),
            Attribute::Cite => self.emit_citations(sink, subject),
            Attribute::Crossref => self.emit_crossref(sink, subject, class, assigned_proc),
            Attribute::Journal => {
                if class == DocClass::Article && !self.year_journals.is_empty() {
                    let (number, _) = self.year_journals
                        [self.rng.below(self.year_journals.len() as u64) as usize];
                    self.emit(
                        sink,
                        Triple::new(
                            subject.clone(),
                            Iri::new(swrc::JOURNAL),
                            Term::iri(journal_uri(number, year)),
                        ),
                    )
                } else {
                    Ok(())
                }
            }
            Attribute::Booktitle => {
                let title = match (class, assigned_proc, conference) {
                    (DocClass::Inproceedings, Some((_, t)), _) => t.clone(),
                    (DocClass::Proceedings, _, Some((_, t))) => t.clone(),
                    _ => self.title_words(),
                };
                self.emit_string(sink, subject, bench::BOOKTITLE, title)
            }
            Attribute::Pages => {
                let from = 1 + self.rng.below(400);
                let to = from + 1 + self.rng.below(40);
                self.emit_string(sink, subject, swrc::PAGES, format!("{from}-{to}"))
            }
            Attribute::Ee => {
                let word = *self.rng.pick(names::WORDS);
                let value = format!(
                    "http://www.{word}.org/rec/{}{}",
                    class.label(),
                    self.class_seq[class.index()]
                );
                self.emit_string(sink, subject, rdfs::SEE_ALSO, value)
            }
            Attribute::Url => {
                let word = *self.rng.pick(names::WORDS);
                let value = format!(
                    "http://www.{word}.com/{}{}.html",
                    class.label().to_lowercase(),
                    self.class_seq[class.index()]
                );
                self.emit_string(sink, subject, foaf::HOMEPAGE, value)
            }
            Attribute::Isbn => {
                let a = self.rng.below(10);
                let b = self.rng.below(100_000);
                let c = self.rng.below(1_000);
                let d = self.rng.below(10);
                self.emit_string(sink, subject, swrc::ISBN, format!("{a}-{b:05}-{c:03}-{d}"))
            }
            Attribute::Month => {
                let m = self.rng.range_inclusive(1, 12) as i64;
                self.emit_int(sink, subject, swrc::MONTH, m)
            }
            Attribute::Number => {
                let n = self.rng.range_inclusive(1, 500) as i64;
                self.emit_int(sink, subject, swrc::NUMBER, n)
            }
            Attribute::Volume => {
                let v = self.rng.range_inclusive(1, 120) as i64;
                self.emit_int(sink, subject, swrc::VOLUME, v)
            }
            Attribute::Chapter => {
                let c = self.rng.range_inclusive(1, 25) as i64;
                self.emit_int(sink, subject, swrc::CHAPTER, c)
            }
            Attribute::Series => {
                let s = self.rng.range_inclusive(1, 80) as i64;
                self.emit_int(sink, subject, swrc::SERIES, s)
            }
            Attribute::Publisher | Attribute::School => {
                let p = *self.rng.pick(names::PUBLISHERS);
                self.emit_string(sink, subject, dc::PUBLISHER, p.to_owned())
            }
            Attribute::Address => {
                let w = *self.rng.pick(names::WORDS);
                self.emit_string(sink, subject, swrc::ADDRESS, w.to_owned())
            }
            Attribute::Note => {
                let n = 1 + self.rng.below(4) as usize;
                let text = self.random_words(n);
                self.emit_string(sink, subject, bench::NOTE, text)
            }
            Attribute::Cdrom => {
                let w = *self.rng.pick(names::WORDS);
                self.emit_string(
                    sink,
                    subject,
                    bench::CDROM,
                    format!("CDROM/{w}{}", self.class_seq[class.index()]),
                )
            }
        }
    }

    fn emit_string<S: TripleSink>(
        &mut self,
        sink: &mut S,
        subject: &Subject,
        predicate: &str,
        value: String,
    ) -> GenResult {
        self.emit(
            sink,
            Triple::new(
                subject.clone(),
                Iri::new(predicate),
                Term::Literal(Literal::string(value)),
            ),
        )
    }

    fn emit_int<S: TripleSink>(
        &mut self,
        sink: &mut S,
        subject: &Subject,
        predicate: &str,
        value: i64,
    ) -> GenResult {
        self.emit(
            sink,
            Triple::new(
                subject.clone(),
                Iri::new(predicate),
                Term::Literal(Literal::integer(value)),
            ),
        )
    }

    fn emit_authors<S: TripleSink>(
        &mut self,
        sink: &mut S,
        subject: &Subject,
        year: i32,
        roster: &mut Option<YearRoster>,
    ) -> GenResult {
        let Some(roster) = roster.as_mut() else {
            return Ok(());
        };
        let k = params::d_auth(year).sample_count(&mut self.rng, 1, params::MAX_AUTHORS_PER_DOC)
            as usize;
        let mut authors = roster.take_authors(&mut self.rng, k);
        // Erdős joins the first documents of each of his active years as
        // an additional coauthor (giving Q8 its coauthor network).
        if self.erdoes_pubs_left > 0 {
            self.erdoes_pubs_left -= 1;
            authors.push(ERDOES);
        }
        for id in authors {
            self.ensure_person(sink, id)?;
            let (s, _) = self.person_subject_and_name(id);
            // Book-keep before emitting: `emit` signals the triple limit
            // *after* writing the triple, so a truncated document must
            // still count this creator attribute.
            self.pool.record_publication(id, year);
            self.stats.total_authors += 1;
            if self.cfg.detailed_stats {
                self.year_record.total_authors += 1;
                *self.year_author_counts.entry(id).or_insert(0) += 1;
            }
            self.emit(
                sink,
                Triple::new(subject.clone(), Iri::new(dc::CREATOR), s.to_term()),
            )?;
        }
        Ok(())
    }

    fn emit_editors<S: TripleSink>(
        &mut self,
        sink: &mut S,
        subject: &Subject,
        year: i32,
    ) -> GenResult {
        let k =
            params::D_EDITOR.sample_count(&mut self.rng, 1, params::MAX_EDITORS_PER_DOC) as usize;
        let mut editors = self.pool.select_editors(&mut self.rng, k, year);
        if self.erdoes_edits_left > 0 {
            self.erdoes_edits_left -= 1;
            editors.push(ERDOES);
        }
        for id in editors {
            self.ensure_person(sink, id)?;
            let (s, _) = self.person_subject_and_name(id);
            self.emit(
                sink,
                Triple::new(subject.clone(), Iri::new(swrc::EDITOR), s.to_term()),
            )?;
        }
        Ok(())
    }

    fn emit_citations<S: TripleSink>(&mut self, sink: &mut S, subject: &Subject) -> GenResult {
        let planned = params::D_CITE.sample_count(&mut self.rng, 1, params::MAX_OUTGOING_CITATIONS);
        self.stats.citations_planned += planned;
        *self
            .stats
            .citation_histogram
            .entry(planned as u32)
            .or_insert(0) += 1;

        self.bag_seq += 1;
        let bag = Subject::blank(format!("references{}", self.bag_seq));
        self.emit(
            sink,
            Triple::new(
                subject.clone(),
                Iri::new(dcterms::REFERENCES),
                bag.to_term(),
            ),
        )?;
        self.emit(
            sink,
            Triple::new(bag.clone(), Iri::new(rdf::TYPE), Term::iri(rdf::BAG)),
        )?;

        let mut member = 0usize;
        for _ in 0..planned {
            // DBLP's citation system is incomplete: a fraction of the
            // planned citations stays untargeted (Section III-D).
            if self.registry.is_empty() || self.rng.chance(params::UNTARGETED_CITATION_PROBABILITY)
            {
                continue;
            }
            // Preferential attachment: mostly re-cite already-cited
            // documents (power-law in-degree), sometimes a uniform pick.
            let target_idx = if !self.citation_urn.is_empty() && self.rng.chance(0.7) {
                *self.rng.pick(&self.citation_urn) as usize
            } else {
                self.rng.below(self.registry.len() as u64) as usize
            };
            self.citation_urn.push(target_idx as u32);
            let target = self.registry[target_idx];
            member += 1;
            // Count before emitting (see emit_authors on limit semantics).
            self.stats.citations_targeted += 1;
            self.emit(
                sink,
                Triple::new(
                    bag.clone(),
                    Iri::new(rdf::member(member)),
                    Term::iri(target.uri()),
                ),
            )?;
        }
        Ok(())
    }

    fn emit_crossref<S: TripleSink>(
        &mut self,
        sink: &mut S,
        subject: &Subject,
        class: DocClass,
        assigned_proc: &Option<(u64, String)>,
    ) -> GenResult {
        let target = match class {
            DocClass::Inproceedings => assigned_proc
                .as_ref()
                .map(|(seq, _)| document_uri(DocClass::Proceedings, *seq)),
            DocClass::Incollection if !self.year_books.is_empty() => {
                let seq = self.year_books[self.rng.below(self.year_books.len() as u64) as usize];
                Some(document_uri(DocClass::Book, seq))
            }
            // Other classes have no natural container in our scheme; their
            // Table IX crossref probabilities are ≤ 0.0016.
            _ => None,
        };
        if let Some(uri) = target {
            self.emit(
                sink,
                Triple::new(subject.clone(), Iri::new(dcterms::PART_OF), Term::iri(uri)),
            )?;
        }
        Ok(())
    }

    // -- text synthesis ----------------------------------------------------

    fn title_words(&mut self) -> String {
        let n = 2 + self.rng.below(6) as usize;
        self.random_words(n)
    }

    fn random_words(&mut self, n: usize) -> String {
        let mut s = String::with_capacity(n * 8);
        for i in 0..n {
            if i > 0 {
                s.push(' ');
            }
            let word = *self.rng.pick(names::WORDS);
            s.push_str(word);
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Conveniences
// ---------------------------------------------------------------------------

/// Generates into memory; for tests, examples and direct store loading.
pub fn generate_graph(cfg: Config) -> (Graph, GeneratorStats) {
    let mut sink = GraphSink::new();
    let stats = Generator::new(cfg)
        .run(&mut sink)
        .expect("in-memory sink cannot fail");
    (sink.graph, stats)
}

/// Generates N-Triples into any writer.
pub fn generate_to_writer<W: io::Write>(cfg: Config, writer: W) -> io::Result<GeneratorStats> {
    let mut sink = NtriplesSink::new(writer);
    Generator::new(cfg).run(&mut sink)
}

/// Generates an N-Triples file at `path`.
pub fn generate_to_path(cfg: Config, path: &Path) -> io::Result<GeneratorStats> {
    let file = std::fs::File::create(path)?;
    generate_to_writer(cfg, file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2b_rdf::vocab::xsd;
    use std::collections::HashSet;

    #[test]
    fn triple_limit_is_exact() {
        for limit in [100, 1_000, 10_000] {
            let (g, stats) = generate_graph(Config::triples(limit));
            assert_eq!(g.len() as u64, limit);
            assert_eq!(stats.triples, limit);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, _) = generate_graph(Config::triples(5_000));
        let (b, _) = generate_graph(Config::triples(5_000));
        assert_eq!(a, b);
    }

    #[test]
    fn generation_is_incremental() {
        // Smaller documents are prefixes of larger ones (same seed).
        let (small, _) = generate_graph(Config::triples(2_000));
        let (large, _) = generate_graph(Config::triples(6_000));
        assert_eq!(small.as_slice(), &large.as_slice()[..2_000]);
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = generate_graph(Config::triples(2_000));
        let (b, _) = generate_graph(Config::triples(2_000).with_seed(99));
        assert_ne!(a, b);
    }

    #[test]
    fn journal_1_1940_exists_in_10k() {
        // Q1's target: the 1940 journal must exist in every benchmark
        // document (the paper's smallest scale is 10k).
        let (g, _) = generate_graph(Config::triples(10_000));
        let found = g.iter().any(|t| {
            t.predicate.as_str() == dc::TITLE
                && matches!(&t.object, Term::Literal(l) if l.lexical == "Journal 1 (1940)")
        });
        assert!(found, "Journal 1 (1940) missing");
    }

    #[test]
    fn no_article_has_isbn() {
        // Table IX: P(isbn | Article) = 0 — Q3c returns the empty set.
        let (g, _) = generate_graph(Config::triples(20_000));
        let articles: HashSet<String> = g
            .instances_of(bench::ARTICLE)
            .map(|s| s.to_term().to_string())
            .collect();
        for t in g.with_predicate(swrc::ISBN) {
            assert!(
                !articles.contains(&t.subject.to_term().to_string()),
                "article with isbn: {t}"
            );
        }
    }

    #[test]
    fn erdoes_is_active() {
        let (g, _) = generate_graph(Config::triples(30_000));
        let erdoes = Term::iri(person::PAUL_ERDOES);
        let as_author = g
            .with_predicate(dc::CREATOR)
            .filter(|t| t.object == erdoes)
            .count();
        assert!(as_author > 0, "Erdős must author publications");
        // Typed and named exactly once.
        let named = g
            .with_predicate(foaf::NAME)
            .filter(|t| t.subject.to_term() == erdoes)
            .count();
        assert_eq!(named, 1);
    }

    #[test]
    fn persons_are_blank_nodes_with_unique_names() {
        let (g, _) = generate_graph(Config::triples(30_000));
        let mut names = HashSet::new();
        for t in g.with_predicate(foaf::NAME) {
            let name = &t.object.as_literal().unwrap().lexical;
            assert!(names.insert(name.clone()), "duplicate author name {name}");
            if name != "Paul Erdoes" {
                assert!(t.subject.to_term().is_blank(), "person not a blank node");
            }
        }
        assert!(
            !names.contains("John Q. Public"),
            "Q12c witness must not exist"
        );
    }

    #[test]
    fn reference_bags_are_typed_and_consistent() {
        let (g, stats) = generate_graph(Config::triples(150_000));
        let bags: HashSet<Term> = g
            .with_predicate(dcterms::REFERENCES)
            .map(|t| t.object.clone())
            .collect();
        assert!(!bags.is_empty(), "no citation bags in 150k triples");
        // Every bag is typed rdf:Bag.
        let typed: HashSet<Term> = g
            .iter()
            .filter(|t| {
                t.predicate.as_str() == rdf::TYPE
                    && matches!(&t.object, Term::Iri(i) if i.as_str() == rdf::BAG)
            })
            .map(|t| t.subject.to_term())
            .collect();
        for bag in &bags {
            assert!(typed.contains(bag), "untyped bag {bag}");
        }
        // Bag members reference existing documents.
        let docs: HashSet<String> = g
            .iter()
            .filter(|t| t.predicate.as_str() == rdf::TYPE)
            .map(|t| t.subject.to_term().to_string())
            .collect();
        let mut members = 0;
        for t in g.iter() {
            if rdf::member_index(t.predicate.as_str()).is_some() {
                members += 1;
                assert!(
                    docs.contains(&t.object.to_string()),
                    "dangling citation target {}",
                    t.object
                );
            }
        }
        assert_eq!(members as u64, stats.citations_targeted);
        assert!(stats.citations_targeted < stats.citations_planned);
    }

    #[test]
    fn crossrefs_point_to_existing_venues() {
        let (g, _) = generate_graph(Config::triples(50_000));
        let docs: HashSet<String> = g
            .iter()
            .filter(|t| t.predicate.as_str() == rdf::TYPE)
            .map(|t| t.subject.to_term().to_string())
            .collect();
        let mut seen = 0;
        for t in g.with_predicate(dcterms::PART_OF) {
            seen += 1;
            assert!(
                docs.contains(&t.object.to_string()),
                "dangling partOf {}",
                t.object
            );
        }
        assert!(seen > 0, "no crossrefs generated");
    }

    #[test]
    fn string_literals_are_xsd_string_typed() {
        let (g, _) = generate_graph(Config::triples(5_000));
        for t in g.with_predicate(dc::TITLE) {
            let lit = t.object.as_literal().expect("title is a literal");
            assert_eq!(lit.datatype.as_ref().unwrap().as_str(), xsd::STRING);
        }
        for t in g.with_predicate(dcterms::ISSUED) {
            let lit = t.object.as_literal().expect("issued is a literal");
            assert_eq!(lit.datatype.as_ref().unwrap().as_str(), xsd::INTEGER);
        }
    }

    #[test]
    fn year_limit_mode_stops_at_year() {
        let (g, stats) = generate_graph(Config::up_to_year(1945));
        assert_eq!(stats.end_year, 1945);
        for t in g.with_predicate(dcterms::ISSUED) {
            let year = t.object.as_literal().unwrap().as_integer().unwrap();
            assert!(year <= 1945, "document issued after the year limit: {year}");
        }
    }

    #[test]
    fn detailed_stats_collect_year_records() {
        let cfg = Config::up_to_year(1950).with_detailed_stats();
        let (_, stats) = generate_graph(cfg);
        assert_eq!(stats.years.len(), (1950 - params::FIRST_YEAR + 1) as usize);
        let last = stats.years.last().unwrap();
        assert_eq!(last.year, 1950);
        assert!(last.total_authors > 0);
        assert!(!last.publications_histogram.is_empty());
    }

    #[test]
    fn table_viii_shape_10k() {
        // Order-of-magnitude comparison against the paper's Table VIII row
        // for 10k triples (end year 1955, ~1.5k authors, ~916 articles,
        // ~169 inproceedings, 25 journals). Constants differ in detail
        // (name lists, value synthesis), so we check coarse bands.
        let (_, stats) = generate_graph(Config::triples(10_000));
        assert!(
            (1948..=1962).contains(&stats.end_year),
            "end year {}",
            stats.end_year
        );
        assert!(stats.count(DocClass::Article) > stats.count(DocClass::Proceedings));
        assert!(stats.journals > 0);
        assert!(stats.total_authors > stats.distinct_authors);
    }

    #[test]
    fn articles_dominate_books() {
        let (_, stats) = generate_graph(Config::triples(100_000));
        assert!(stats.count(DocClass::Article) > 20 * stats.count(DocClass::Book).max(1));
    }

    #[test]
    fn ntriples_output_reparses_identically() {
        let cfg = Config::triples(3_000);
        let mut buf = Vec::new();
        let stats = generate_to_writer(cfg, &mut buf).unwrap();
        assert_eq!(stats.bytes, Some(buf.len() as u64));
        let parsed = sp2b_rdf::ntriples::Parser::new(&buf[..])
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        let (graph, _) = generate_graph(cfg);
        assert_eq!(parsed, graph.into_triples());
    }
}
