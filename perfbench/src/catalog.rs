//! The metric catalogue: every name and unit the benchmark reports, in
//! output order. `BENCHMARK.json` declares the same lists (a unit test
//! below holds the two together).

use crate::measure::Metric;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by `--trace 0` runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_iters_per_s", "it/s"),
    ("cpu_ms_per_iter", "ms"),
    ("plan_ms_p50", "ms"),
    ("plan_ms_p90", "ms"),
    ("train_tokens_per_s", "tok/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by `--trace 1` runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.batch_ms", "ms"),
    ("ordering.ms", "ms"),
    ("dp.shape_pass_ms", "ms"),
    ("dp.fwd_cost_ms", "ms"),
    ("dp.partition_ms.none", "ms"),
    ("dp.partition_ms.selective", "ms"),
    ("dp.partition_ms.full", "ms"),
    ("dp.modes_feasible_ratio", "ratio"),
    ("dp.distinct_shapes", "count"),
    ("dp.micro_batches", "count"),
    ("grid.scalar_queries", "count"),
    ("grid.batch_cells", "count"),
    ("planner.plan_ms", "ms"),
    ("planner.layers_ms", "ms"),
    ("planner.parallel_speedup", "ratio"),
    ("planner.unattributed_ratio", "ratio"),
    ("kk.ms", "ms"),
    ("kk.imbalance", "ratio"),
    ("schedule.input_ms", "ms"),
    ("schedule.reorder_ms", "ms"),
    ("schedule.adaptive_ms", "ms"),
    ("schedule.evaluate_ms", "ms"),
    ("comm.plan_ms", "ms"),
    ("comm.verify_ms", "ms"),
    ("lower.ms", "ms"),
    ("lower.memo_hit_ratio", "ratio"),
    ("codec.encode_ms.json", "ms"),
    ("codec.encode_ms.binary", "ms"),
    ("codec.encode_ms.flat", "ms"),
    ("codec.decode_ms.json", "ms"),
    ("codec.decode_ms.binary", "ms"),
    ("codec.decode_ms.flat", "ms"),
    ("codec.blob_kb.json", "KB"),
    ("codec.blob_kb.binary", "KB"),
    ("codec.blob_kb.flat", "KB"),
    ("store.peak_occupancy", "count"),
    ("store.discarded", "count"),
    ("engine.ms", "ms"),
    ("engine.sim_iter_ms", "ms"),
    ("runtime.exposed_ms", "ms"),
    ("runtime.overlap_ratio", "ratio"),
    ("runtime.worker_plan_ms", "ms"),
    ("runtime.serde_ms", "ms"),
    ("runtime.exec_host_ms", "ms"),
    ("runtime.max_plans_resident", "count"),
    ("cluster.max_link_kb", "KB"),
    ("cluster.push_wire_ms", "ms"),
    ("cluster.fetch_wire_ms", "ms"),
    ("cluster.link_queue_wait_ms", "ms"),
    ("cluster.decode_ms", "ms"),
    ("cluster.exposed_ms", "ms"),
    ("cluster.overlap_ratio", "ratio"),
    ("shard.served_skew", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("plan_wire_kb_per_iter", "KB"),
    ("fail_ratio", "ratio"),
];

/// The metrics of `catalogue`, in its order, with values from `values`.
/// Every catalogued name must have a value and every value a name.
pub fn collect(
    catalogue: &[(&'static str, &'static str)],
    values: &BTreeMap<&str, f64>,
) -> Result<Vec<Metric>, String> {
    if let Some(extra) = values
        .keys()
        .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    catalogue
        .iter()
        .map(|&(name, unit)| {
            let value = *values
                .get(name)
                .ok_or(format!("no value for metric {name}"))?;
            Ok(Metric { name, value, unit })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::valid_metric_name;
    use serde_json::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Object(m) => {
                &m.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no {key}"))
                    .1
            }
            _ => panic!("not an object"),
        }
    }

    fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
        let Value::Array(items) = field(doc, list) else {
            panic!("{list} is not a list")
        };
        items
            .iter()
            .map(|m| match (field(m, "name"), field(m, "unit")) {
                (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
                _ => panic!("malformed {list} entry"),
            })
            .collect()
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_metric_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let doc = serde_json::parse_json(&text).expect("BENCHMARK.json parses");
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn collect_requires_exactly_the_catalogue() {
        let cat: &[(&str, &str)] = &[("a", "ms"), ("b", "s")];
        let mut v = BTreeMap::from([("a", 1.0)]);
        assert!(collect(cat, &v).is_err());
        v.insert("b", 2.0);
        let m = collect(cat, &v).unwrap();
        assert_eq!((m[1].name, m[1].value, m[1].unit), ("b", 2.0, "s"));
        v.insert("c", 3.0);
        assert!(collect(cat, &v).is_err());
    }
}
