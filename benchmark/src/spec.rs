//! The benchmark's catalogue: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root is the same catalogue in the driver's schema; a unit test keeps
//! the two identical, so later issues can cite names from either.

use std::collections::BTreeMap;

use crate::stats::Summary;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const INGEST: &str = "ingest-250k";
pub const RESIDENT: &str = "protocol-resident-50k";
pub const DISK: &str = "protocol-disk-50k";
pub const SERVE: &str = "serve-mix-50k";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: INGEST,
        why: "write path at 250k triples (generate, parse, intern, build, 2-shard load, save, reopen): datagen/rdf/store do all the work, sparql/server none",
    },
    Workload {
        name: RESIDENT,
        why: "the paper protocol Q1-Q12c on a resident native store: sparql plan/scan/join does all the work; block cache, serializer and HTTP none",
    },
    Workload {
        name: DISK,
        why: "same queries on saved segments behind a 128 KiB block cache, a fourteenth of the 1.8 MB of runs: the store's block path dominates, so a cache/decoder change moves this and not the resident workload",
    },
    Workload {
        name: SERVE,
        why: "sp2b_server over loopback, seeded lookup/star/short-chain mix with JSON results (~67 KB mean): serializer, HTTP write and request parse dominate; joins do almost nothing",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every end-to-end metric has a number on every workload (the driver
/// requires it), so each is defined over the workload's own operation
/// kinds — see `benchmark/README.md` for the per-workload meaning.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "load_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ta_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tg_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, layer = crate. A workload that never calls a layer
/// reports 0 for it ("time busy: none"), which is itself the prediction
/// that a change to that layer cannot move the workload.
pub const PER_LAYER: &[Layer] = &[
    lower("datagen.gen_s", "s"),
    higher("datagen.triples_per_s", "1/s"),
    lower("datagen.bytes", "bytes"),
    lower("rdf.parse_s", "s"),
    higher("rdf.parse_mb_per_s", "MB/s"),
    lower("rdf.write_s", "s"),
    lower("store.intern_s", "s"),
    lower("store.terms", "count"),
    lower("store.build_native_s", "s"),
    lower("store.build_sharded2_s", "s"),
    lower("store.save_s", "s"),
    lower("store.open_s", "s"),
    lower("store.disk_bytes", "bytes"),
    lower("store.dict_bytes", "bytes"),
    lower("store.disk_bytes_per_triple", "bytes"),
    lower("store.scan1_s", "s"),
    lower("store.scan2_s", "s"),
    lower("store.lookup_us", "us"),
    lower("store.estimate_us", "us"),
    higher("store.cache_hit_ratio", "ratio"),
    lower("store.cache_misses", "count"),
    lower("store.cache_evictions", "count"),
    lower("store.cache_peak_bytes", "bytes"),
    lower("store.fit_ta_s", "s"),
    lower("store.fit_q4_s", "s"),
    lower("store.fit_q5b_s", "s"),
    lower("sparql.parse_s", "s"),
    lower("sparql.plan_s", "s"),
    lower("sparql.exec_s", "s"),
    lower("sparql.rows_scanned", "count"),
    higher("sparql.results", "count"),
    lower("sparql.rows_per_result", "ratio"),
    lower("sparql.q1_s", "s"),
    lower("sparql.q2_s", "s"),
    lower("sparql.q3a_s", "s"),
    lower("sparql.q3b_s", "s"),
    lower("sparql.q3c_s", "s"),
    lower("sparql.q4_s", "s"),
    lower("sparql.q5a_s", "s"),
    lower("sparql.q5b_s", "s"),
    lower("sparql.q6_s", "s"),
    lower("sparql.q7_s", "s"),
    lower("sparql.q8_s", "s"),
    lower("sparql.q9_s", "s"),
    lower("sparql.q10_s", "s"),
    lower("sparql.q11_s", "s"),
    lower("sparql.q12a_s", "s"),
    lower("sparql.q12b_s", "s"),
    lower("sparql.q12c_s", "s"),
    lower("sparql.agg_s", "s"),
    lower("sparql.serialize_json_s", "s"),
    lower("sparql.serialize_csv_s", "s"),
    lower("sparql.serialize_bytes", "bytes"),
    higher("server.closed_qps", "1/s"),
    lower("server.lat_p50_ms", "ms"),
    lower("server.lat_p99_ms", "ms"),
    lower("server.lat_p99_400_ms", "ms"),
    lower("server.lat_p99_1200_ms", "ms"),
    higher("server.rate_ok_qps", "1/s"),
    lower("server.rtt_floor_ms", "ms"),
    lower("server.read_request_us", "us"),
    lower("server.service_p50_ms", "ms"),
    lower("server.service_p99_ms", "ms"),
    lower("server.overhead_ms", "ms"),
    higher("server.bytes_per_s", "B/s"),
    lower("server.reconnects", "count"),
    lower("server.shed", "count"),
    lower("server.aborted", "count"),
    lower("core.ingest_s", "s"),
    lower("core.fail_ratio", "ratio"),
    lower("core.queue_delay_p99_ms", "ms"),
    lower("core.gen_lateness_p99_ms", "ms"),
    lower("core.measure_overhead_us", "us"),
    lower("core.trace_overhead_pct", "%"),
    higher("core.span_coverage", "ratio"),
    lower("obs.record_ns", "ns"),
];

/// Counts that must repeat bit-for-bit between two runs with one seed.
pub const EXACT_COUNTS: [&str; 6] = [
    "datagen.bytes",
    "store.terms",
    "store.disk_bytes",
    "store.dict_bytes",
    "sparql.results",
    "sparql.rows_scanned",
];

/// The per-layer metric of one benchmark query, e.g. `sparql.q3a_s`.
pub fn query_metric(label: &str) -> String {
    format!("sparql.{}_s", label.to_ascii_lowercase())
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// The metrics one run measured, by catalogue name.
#[derive(Default)]
pub struct Measured {
    values: BTreeMap<String, Summary>,
}

impl Measured {
    /// Records a metric; a name the catalogue does not list is a bug in
    /// the harness, caught here rather than by a reader of the output.
    pub fn set(&mut self, name: &str, summary: Summary) {
        assert!(
            unit_of(name).is_some(),
            "metric '{name}' is not in the catalogue"
        );
        self.values.insert(name.to_owned(), summary);
    }

    pub fn set_exact(&mut self, name: &str, value: f64) {
        self.set(name, Summary::exact(value));
    }

    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.values.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn names_are_valid(names: &[&str]) {
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(seen.insert(*name), "duplicate name {name}");
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn catalogue_respects_the_schema_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names_are_valid(&names);
        assert!(PER_LAYER.len() <= 128);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for name in EXACT_COUNTS {
            assert!(unit_of(name).is_some(), "{name}");
        }
        for q in sp2b_core::BenchQuery::ALL {
            assert!(unit_of(&query_metric(q.label())).is_some(), "{}", q.label());
        }
    }

    /// `BENCHMARK.json` must list exactly this catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_owned();

        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (item, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(item.as_obj().unwrap().len(), 2);
            assert_eq!(field(item, "name"), w.name);
            assert_eq!(field(item, "why"), w.why);
        }

        let end_to_end = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (item, m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(item.as_obj().unwrap().len(), 4);
            assert_eq!(field(item, "name"), m.name);
            assert_eq!(field(item, "unit"), m.unit);
            assert_eq!(field(item, "better"), m.better.label());
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(m.bound));
        }

        let per_layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (item, m) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(item.as_obj().unwrap().len(), 3);
            assert_eq!(field(item, "name"), m.name);
            assert_eq!(field(item, "unit"), m.unit);
            assert_eq!(field(item, "better"), m.better.label());
        }

        let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
        assert_eq!(paths, [Json::str("benchmark")]);
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_names_are_rejected() {
        Measured::default().set_exact("sparql.typo_s", 1.0);
    }
}
