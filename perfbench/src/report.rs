//! The metric catalogue, the per-run report and its two renderings:
//! human lines plus one JSON result line on stdout, and a fuller JSON
//! record (run metadata, digests, sample counts) under `.perfbench/`.

use crate::stats::valid_metric_name;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics every untraced run reports, on every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("tick_p50_us", "us"),
    ("uav_ticks_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// Metrics every traced run reports, on every workload. A layer the
/// workload does not exercise reads 0 with 0 samples.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("core.phase.sim_step_us", "us"),
    ("core.phase.sense_publish_us", "us"),
    ("core.phase.eddi_eval_us", "us"),
    ("core.phase.airspace_us", "us"),
    ("core.phase.bus_step_us", "us"),
    ("core.phase.security_us", "us"),
    ("core.phase.cl_landing_us", "us"),
    ("core.phase.consert_compose_us", "us"),
    ("core.phase.decide_us", "us"),
    ("core.phase.bookkeeping_us", "us"),
    ("core.phase.unattributed_us", "us"),
    ("core.tick_p50_traced_us", "us"),
    ("core.eddi.tick_us", "us"),
    ("core.eddi_glue_us", "us"),
    ("vision.extract_us", "us"),
    ("safeml.assess_us", "us"),
    ("deepknowledge.assess_us", "us"),
    ("sinadra.assess_us", "us"),
    ("safedrones.advance_us", "us"),
    ("security.spoof_check_us", "us"),
    ("conserts.decide_us", "us"),
    ("sinadra.cache_hit_ratio", "ratio"),
    ("safedrones.cache_hit_ratio", "ratio"),
    ("conserts.cache_hit_ratio", "ratio"),
    ("core.eddi.cache_hit_ratio", "ratio"),
    ("core.allocs_per_uav_tick", "count"),
    ("core.heap_growth_kb_per_sim_s", "kB/s"),
    ("middleware.delivered_per_tick", "count"),
    ("middleware.dropped_per_tick", "count"),
    ("obs.snapshot_us", "us"),
    ("server.queue_wait_ms", "ms"),
    ("server.run_ms", "ms"),
    ("server.log.append_us", "us"),
    ("server.job.compile_us", "us"),
    ("server.log.open_ms", "ms"),
    ("server.log.bytes_per_run", "B"),
    ("server.replay.read_all_ms", "ms"),
    ("server.stream.dropped", "count"),
];

/// One measured value with its unit and how many samples it rests on.
#[derive(Debug, Clone)]
struct Value {
    value: f64,
    unit: &'static str,
    samples: u64,
}

/// Everything one run measured and checked.
pub struct Report {
    workload: String,
    traced: bool,
    /// Operations attempted (scenario runs, ticks checked, campaigns).
    pub attempted: u64,
    failures: Vec<String>,
    catalogue: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, Value>,
    /// Printed and recorded, but outside the JSON result line: metrics
    /// that exist on one workload only.
    extra: Vec<(String, Value)>,
    meta: Vec<(String, String)>,
    digests: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    /// An empty report for one run.
    pub fn new(workload: &str, seed: u64, seconds: u64, traced: bool) -> Self {
        let catalogue: &'static [(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut report = Report {
            workload: workload.to_string(),
            traced,
            attempted: 0,
            failures: Vec::new(),
            catalogue,
            values: BTreeMap::new(),
            extra: Vec::new(),
            meta: Vec::new(),
            digests: Vec::new(),
            notes: Vec::new(),
        };
        report.meta_str("workload", workload);
        report.meta_int("seed", seed);
        report.meta_int("seconds", seconds);
        report.meta_raw("traced", traced.to_string());
        report.meta_int(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        );
        report.meta_str("commit", &commit().unwrap_or_else(|| "unknown".into()));
        report.meta_str("os", std::env::consts::OS);
        report.meta_str("arch", std::env::consts::ARCH);
        report
    }

    /// Whether this run reports per-layer metrics.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Sets a catalogue metric of this run's mode; metrics of the other
    /// mode are ignored, so workloads can set both unconditionally.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        if let Some(&(name, unit)) = self.catalogue.iter().find(|(n, _)| *n == name) {
            self.values.insert(
                name,
                Value {
                    value,
                    unit,
                    samples,
                },
            );
        } else {
            let known = END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name);
            assert!(known, "metric {name} is not in the catalogue");
        }
    }

    /// Sets a catalogue metric from a percentile that may be withheld.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>, samples: u64) {
        match value {
            Some(v) => self.set(name, v, samples),
            None if self.catalogue.iter().any(|(n, _)| *n == name) => {
                let highest = crate::stats::highest_reportable(samples as usize, &[0.5, 0.9, 0.99])
                    .map_or("none".to_string(), |q| format!("p{}", q * 100.0));
                self.fail(format!(
                    "{name} withheld: {samples} samples leave fewer than {} beyond it \
                     (highest reportable percentile: {highest})",
                    crate::stats::SAMPLES_BEYOND
                ))
            }
            None => {}
        }
    }

    /// Records a workload-specific metric outside the catalogue.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.extra.push((
            name.to_string(),
            Value {
                value,
                unit,
                samples,
            },
        ));
    }

    /// Records a failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("perfbench: FAILED: {why}");
        self.failures.push(why);
    }

    /// Number of failed operations so far.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Adds a metadata entry whose value is a whole number.
    pub fn meta_int(&mut self, key: &str, value: u64) {
        self.meta_raw(key, value.to_string());
    }

    /// Adds a metadata entry whose value is a JSON string.
    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta_raw(key, json_str(value));
    }

    fn meta_raw(&mut self, key: &str, json: String) {
        self.meta.push((key.to_string(), json));
    }

    /// Records one run's conformance digest and how it was checked.
    pub fn digest(&mut self, scenario: &str, seed: u64, digest: u64, check: &str) {
        let line = format!(
            "digest {} {scenario} {seed} {digest:#018x} {check}",
            self.workload
        );
        println!("{line}");
        self.digests.push(line);
    }

    /// A free-form block (such as a table) for the report file.
    pub fn note(&mut self, text: String) {
        println!("{text}");
        self.notes.push(text);
    }

    /// Checks the catalogue is complete, prints the human lines and the
    /// JSON result line, writes the report file, and returns whether
    /// the run was correct.
    pub fn finish(mut self) -> bool {
        for &(name, _) in self.catalogue {
            if !self.values.contains_key(name) {
                self.fail(format!("metric {name} was not measured"));
            }
        }
        for (name, v) in self
            .values
            .iter()
            .map(|(n, v)| (*n, v))
            .chain(self.extra.iter().map(|(n, v)| (n.as_str(), v)))
        {
            if !valid_metric_name(name) || !v.value.is_finite() {
                let why = format!("metric {name} is malformed or not finite ({})", v.value);
                eprintln!("perfbench: FAILED: {why}");
                self.failures.push(why);
            }
        }
        let correct = self.failures.is_empty();
        for (name, v) in &self.values {
            println!("metric {name} = {} {} (n={})", v.value, v.unit, v.samples);
        }
        for (name, v) in &self.extra {
            println!("extra {name} = {} {} (n={})", v.value, v.unit, v.samples);
        }
        println!(
            "attempted {} failed {} failed_share {}",
            self.attempted,
            self.failed(),
            self.failed() as f64 / self.attempted.max(1) as f64
        );
        if let Err(e) = self.write_file(correct) {
            eprintln!("perfbench: could not write the report file: {e}");
        }
        let mut metrics = String::new();
        for (i, (name, v)) in self.values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v.value),
                json_str(v.unit)
            );
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed()
        );
        correct
    }

    fn write_file(&self, correct: bool) -> std::io::Result<()> {
        let dir = std::path::Path::new(".perfbench");
        std::fs::create_dir_all(dir)?;
        let seed = self
            .meta
            .iter()
            .find(|(k, _)| k == "seed")
            .map_or("0", |(_, v)| v.as_str());
        let path = dir.join(format!(
            "{}-seed{seed}-trace{}.json",
            self.workload,
            u8::from(self.traced)
        ));
        let metric_obj = |(name, v): (&str, &Value)| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                json_str(name),
                json_num(v.value),
                json_str(v.unit),
                v.samples
            )
        };
        let list = |items: Vec<String>| items.join(",\n");
        let strings = |items: &[String]| {
            list(
                items
                    .iter()
                    .map(|s| format!("    {}", json_str(s)))
                    .collect(),
            )
        };
        let body =
            format!(
            "{{\n  \"meta\": {{\n{}\n  }},\n  \"correct\": {correct},\n  \"attempted\": {},\n  \
             \"failed\": {},\n  \"metrics\": {{\n{}\n  }},\n  \"extra\": {{\n{}\n  }},\n  \
             \"digests\": [\n{}\n  ],\n  \"failures\": [\n{}\n  ],\n  \"notes\": [\n{}\n  ]\n}}\n",
            list(
                self.meta
                    .iter()
                    .map(|(k, v)| format!("    {}: {v}", json_str(k)))
                    .collect()
            ),
            self.attempted,
            self.failed(),
            list(self.values.iter().map(|(n, v)| metric_obj((n, v))).collect()),
            list(self.extra.iter().map(|(n, v)| metric_obj((n, v))).collect()),
            strings(&self.digests),
            strings(&self.failures),
            strings(&self.notes),
        );
        std::fs::write(path, body)
    }
}

/// A JSON number with all its digits (Rust's shortest round-trip form).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The checked-out commit, read from `.git` in the working directory
/// when there is one.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for name in &names {
            assert!(valid_metric_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    }

    /// `(name, unit)` of every metric entry in a slice of BENCHMARK.json.
    fn listed(section: &str) -> Vec<(String, String)> {
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let rest = entry.split(key).nth(1).unwrap_or_default();
                    rest.split('"').next().unwrap_or_default().to_string()
                };
                (
                    entry.split('"').next().unwrap_or_default().to_string(),
                    field("\"unit\": \""),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e = text.find("\"end_to_end\"").expect("an end_to_end list");
        let layers = text.find("\"per_layer\"").expect("a per_layer list");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&text[e2e..layers]), own(&END_TO_END));
        assert_eq!(listed(&text[layers..]), own(&PER_LAYER));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
