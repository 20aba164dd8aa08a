//! Generator bookkeeping: everything Table VIII and Figures 2a–2c report.

use std::collections::BTreeMap;

use crate::params::DocClass;

/// Per-year record backing Figures 2b (class instances over time) and 2c
/// (publication-count power law), collected when
/// [`crate::generator::Config::detailed_stats`] is on.
#[derive(Debug, Clone, Default)]
pub struct YearRecord {
    /// The simulated year.
    pub year: i32,
    /// Instances created per document class this year.
    pub class_counts: [u64; 8],
    /// Journals (implicit class) created this year.
    pub journals: u64,
    /// Total author attributes written this year.
    pub total_authors: u64,
    /// Distinct persons appearing as authors this year.
    pub distinct_authors: u64,
    /// Persons publishing for the first time this year.
    pub new_authors: u64,
    /// Histogram: publication count x → number of authors with exactly x
    /// publications this year (Figure 2c).
    pub publications_histogram: BTreeMap<u32, u64>,
}

/// Cumulative statistics for one generation run — the Table VIII row plus
/// the distribution data behind Figures 2a–2c.
#[derive(Debug, Clone, Default)]
pub struct GeneratorStats {
    /// Total triples emitted.
    pub triples: u64,
    /// Bytes written by the sink, when known (file size column).
    pub bytes: Option<u64>,
    /// Last (possibly partially) simulated year ("data up to").
    pub end_year: i32,
    /// Total author attributes (`#Tot.Auth.`).
    pub total_authors: u64,
    /// Distinct persons used as authors (`#Dist.Auth.`).
    pub distinct_authors: u64,
    /// Journal venue resources created.
    pub journals: u64,
    /// Document instances per class, indexed by [`DocClass::index`].
    pub class_counts: [u64; 8],
    /// Outgoing citation slots drawn from `d_cite` (targeted + untargeted).
    pub citations_planned: u64,
    /// Citation bag members actually written (targeted citations; the
    /// "incoming < outgoing" property of Section III-D).
    pub citations_targeted: u64,
    /// Histogram: outgoing-citation count per citing document (Figure 2a).
    pub citation_histogram: BTreeMap<u32, u64>,
    /// Per-year records (empty unless detailed stats were requested).
    pub years: Vec<YearRecord>,
}

impl GeneratorStats {
    /// Count for one document class.
    pub fn count(&self, class: DocClass) -> u64 {
        self.class_counts[class.index()]
    }

    /// Formats the Table VIII row labels/values in paper order.
    pub fn table_viii_rows(&self) -> Vec<(String, String)> {
        let mut rows = vec![
            (
                "file size [MB]".to_owned(),
                match self.bytes {
                    Some(b) => format!("{:.1}", b as f64 / 1_048_576.0),
                    None => "n/a".to_owned(),
                },
            ),
            ("data up to".to_owned(), self.end_year.to_string()),
            ("#Tot.Auth.".to_owned(), self.total_authors.to_string()),
            ("#Dist.Auth.".to_owned(), self.distinct_authors.to_string()),
            ("#Journals".to_owned(), self.journals.to_string()),
        ];
        for class in DocClass::ALL {
            rows.push((format!("#{}", class.label()), self.count(class).to_string()));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_viii_has_all_rows() {
        let stats = GeneratorStats {
            end_year: 1955,
            ..Default::default()
        };
        let rows = stats.table_viii_rows();
        assert_eq!(rows.len(), 5 + 8);
        assert!(rows.iter().any(|(k, v)| k == "data up to" && v == "1955"));
        assert!(rows.iter().any(|(k, _)| k == "#Article"));
    }

    #[test]
    fn class_count_indexing() {
        let mut stats = GeneratorStats::default();
        stats.class_counts[DocClass::Book.index()] = 7;
        assert_eq!(stats.count(DocClass::Book), 7);
        assert_eq!(stats.count(DocClass::Www), 0);
    }
}
