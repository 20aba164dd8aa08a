//! Output sinks for the streaming generator.
//!
//! The generator pushes each triple into a [`TripleSink`] as soon as it is
//! produced, which is what keeps memory consumption constant in document
//! size (requirement (3), scalability). A triple arrives borrowed — a
//! [`TripleRef`] over the vocabulary's constants and the generator's own
//! reused buffers — and lives for the call only, so emitting one
//! allocates nothing. Sinks exist for N-Triples files (the normal case,
//! one line written per triple), in-memory collection (tests and
//! examples; [`GraphSink`] is the one sink that makes owned triples) and
//! pure counting (Table III timing runs).

use std::io::{self, Write};

use sp2b_rdf::ntriples;
use sp2b_rdf::{Graph, TripleRef};

/// Receives generated triples one at a time.
pub trait TripleSink {
    /// Consumes one triple, borrowed for the call.
    fn triple(&mut self, t: TripleRef<'_>) -> io::Result<()>;

    /// Flushes buffered output; called once after generation completes.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Bytes written so far, if the sink tracks a byte count
    /// (Table VIII's "file size" column).
    fn bytes_written(&self) -> Option<u64> {
        None
    }
}

/// Serializes triples as N-Triples into any writer, counting bytes.
///
/// Wrap files in this sink directly — it buffers internally.
pub struct NtriplesSink<W: Write> {
    out: io::BufWriter<CountingWriter<W>>,
    /// The line being written, reused from triple to triple.
    line: Vec<u8>,
}

impl<W: Write> NtriplesSink<W> {
    /// Creates a sink over the given writer.
    pub fn new(writer: W) -> Self {
        NtriplesSink {
            out: io::BufWriter::with_capacity(
                1 << 16,
                CountingWriter {
                    inner: writer,
                    bytes: 0,
                },
            ),
            line: Vec::new(),
        }
    }

    /// Unwraps the inner writer after flushing.
    pub fn into_inner(self) -> io::Result<W> {
        self.out
            .into_inner()
            .map(|cw| cw.inner)
            .map_err(|e| e.into_error())
    }
}

impl<W: Write> TripleSink for NtriplesSink<W> {
    fn triple(&mut self, t: TripleRef<'_>) -> io::Result<()> {
        ntriples::write_triple_ref(&mut self.out, &mut self.line, t)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    fn bytes_written(&self) -> Option<u64> {
        // Buffered bytes have not reached the counter yet; report the
        // flushed amount plus the buffer fill.
        Some(self.out.get_ref().bytes + self.out.buffer().len() as u64)
    }
}

/// Counts bytes flowing through to the inner writer.
struct CountingWriter<W> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Collects triples into an [`sp2b_rdf::Graph`] (for tests and for loading
/// generated data directly into a store without a file detour).
#[derive(Default)]
pub struct GraphSink {
    /// The accumulated graph.
    pub graph: Graph,
}

impl GraphSink {
    /// An empty collecting sink.
    pub fn new() -> Self {
        GraphSink::default()
    }
}

impl TripleSink for GraphSink {
    fn triple(&mut self, t: TripleRef<'_>) -> io::Result<()> {
        self.graph.insert(t.to_triple());
        Ok(())
    }
}

/// Discards triples; used to time raw generation speed (Table III) and to
/// probe document characteristics without I/O.
#[derive(Default)]
pub struct NullSink;

impl TripleSink for NullSink {
    fn triple(&mut self, _t: TripleRef<'_>) -> io::Result<()> {
        Ok(())
    }
}

/// Fans one generation run out to two sinks (e.g. file + stats probe).
pub struct TeeSink<'a, A: TripleSink, B: TripleSink> {
    /// First target.
    pub a: &'a mut A,
    /// Second target.
    pub b: &'a mut B,
}

impl<A: TripleSink, B: TripleSink> TripleSink for TeeSink<'_, A, B> {
    fn triple(&mut self, t: TripleRef<'_>) -> io::Result<()> {
        self.a.triple(t)?;
        self.b.triple(t)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.a.finish()?;
        self.b.finish()
    }

    fn bytes_written(&self) -> Option<u64> {
        self.a.bytes_written().or_else(|| self.b.bytes_written())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2b_rdf::{Iri, Subject, Term, Triple};

    fn t(n: u32) -> Triple {
        Triple::new(
            Subject::iri(format!("http://x/s{n}")),
            Iri::new("http://x/p"),
            Term::iri("http://x/o"),
        )
    }

    #[test]
    fn ntriples_sink_counts_bytes() {
        let mut sink = NtriplesSink::new(Vec::new());
        sink.triple(t(1).as_ref()).unwrap();
        sink.triple(t(2).as_ref()).unwrap();
        let bytes = sink.bytes_written().unwrap();
        sink.finish().unwrap();
        let buf = sink.into_inner().unwrap();
        assert_eq!(buf.len() as u64, bytes);
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), 2);
    }

    #[test]
    fn graph_sink_collects() {
        let mut sink = GraphSink::new();
        sink.triple(t(1).as_ref()).unwrap();
        sink.triple(t(2).as_ref()).unwrap();
        assert_eq!(sink.graph.len(), 2);
    }

    #[test]
    fn tee_feeds_both() {
        let mut a = GraphSink::new();
        let mut b = GraphSink::new();
        {
            let mut tee = TeeSink {
                a: &mut a,
                b: &mut b,
            };
            tee.triple(t(1).as_ref()).unwrap();
            tee.finish().unwrap();
        }
        assert_eq!(a.graph.len(), 1);
        assert_eq!(b.graph.len(), 1);
    }
}
