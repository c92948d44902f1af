//! The benchmark envelope: the one schema every `repro … --json` artefact
//! writes (DESIGN.md §19).
//!
//! ```text
//! {"artefact": "check", "schema": 1, "timing": {"warmup": 1, "samples": 5},
//!  "cells": [{"name": "n=8", "counters": {…}, "varying": {…}, "wall_ns": {…}}, …]}
//! ```
//!
//! A cell holds three kinds of field, and its producer decides which is
//! which:
//!
//! * `counters` — deterministic results (verdicts, rig steps, product
//!   sizes, asserted booleans). CI's gate requires them, the cell names and
//!   their order equal to the committed file.
//! * `varying` — results that are not timings but still differ from run to
//!   run (worker attribution, a journal cut that depends on timing). Never
//!   gated.
//! * `wall_ns` — wall-clock nanoseconds, each the median over the
//!   envelope's samples. Never gated.
//!
//! [`Envelope::measure`] is the one timing loop: `warmup` discarded runs,
//! then `samples` runs whose counters must agree, reduced to the median of
//! each timing. With fewer than 40 samples a tail percentile is no tail, so
//! only the median is kept.

use std::time::Instant;

use muml_obs::json::{object, FromJson, Json, ToJson};

/// Version of the envelope layout.
pub const SCHEMA: u64 = 1;

/// How an envelope's timings were taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Discarded runs before the first sample (first-touch costs land
    /// there).
    pub warmup: usize,
    /// Timed runs; each `wall_ns` entry is their median.
    pub samples: usize,
}

impl Timing {
    /// Microsecond-scale kernels (fig2, check, incr, tables): one warm-up,
    /// median of five.
    pub const KERNEL: Timing = Timing {
        warmup: 1,
        samples: 5,
    };
    /// Campaigns (fleet, storm, warm, probe, chaos): one run.
    pub const ONCE: Timing = Timing {
        warmup: 0,
        samples: 1,
    };
}

muml_obs::json_codec! {
    impl ToJson for Timing {
        warmup: "warmup",
        samples: "samples",
    }
}

/// One measured cell of an envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Unique within its envelope; the gate compares names in order.
    pub name: String,
    /// Deterministic results, gated.
    pub counters: Vec<(String, Json)>,
    /// Run-to-run results that are not timings, never gated.
    pub varying: Vec<(String, Json)>,
    /// Wall-clock nanoseconds, never gated.
    pub wall_ns: Vec<(String, u64)>,
}

impl Cell {
    /// An empty cell.
    pub fn new(name: impl Into<String>) -> Cell {
        Cell {
            name: name.into(),
            counters: Vec::new(),
            varying: Vec::new(),
            wall_ns: Vec::new(),
        }
    }

    /// Adds a deterministic counter.
    pub fn counter(mut self, key: &str, value: impl ToJson) -> Cell {
        self.counters.push((key.to_owned(), value.to_json()));
        self
    }

    /// Adds every field of the JSON object `object` as a counter, except
    /// the keys in `skip`.
    pub fn counters_from(self, object: Json, skip: &[&str]) -> Cell {
        let fields: Vec<(String, Json)> =
            FromJson::from_json(&object).expect("counters come from an object");
        fields
            .into_iter()
            .filter(|(key, _)| !skip.contains(&key.as_str()))
            .fold(self, |cell, (key, value)| cell.counter(&key, value))
    }

    /// Adds a field that varies from run to run.
    pub fn varying(mut self, key: &str, value: impl ToJson) -> Cell {
        self.varying.push((key.to_owned(), value.to_json()));
        self
    }

    /// Adds a wall-clock timing.
    pub fn wall(mut self, key: &str, nanos: u64) -> Cell {
        self.wall_ns.push((key.to_owned(), nanos));
        self
    }

    /// A counter's value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.counters.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

muml_obs::json_codec! {
    impl ToJson for Cell {
        name: "name",
        counters: "counters",
        varying: "varying",
        wall_ns: "wall_ns",
    }
}

/// Runs `f` and returns its result with the wall-clock nanoseconds it
/// took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// One artefact's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The artefact name; the file is `BENCH_<artefact>.json`.
    pub artefact: String,
    /// How the timings were taken.
    pub timing: Timing,
    /// The cells, in the producer's order.
    pub cells: Vec<Cell>,
}

impl Envelope {
    /// The timing loop: runs `run` `timing.warmup` times and discards the
    /// result, then `timing.samples` times. Every sample must produce the
    /// same cell names and counters (panics otherwise: a counter that moves
    /// between identical runs is not deterministic). The envelope keeps the
    /// first sample's counters and varying fields and the median of each
    /// timing.
    pub fn measure(artefact: &str, timing: Timing, mut run: impl FnMut() -> Vec<Cell>) -> Envelope {
        for _ in 0..timing.warmup {
            run();
        }
        let samples: Vec<Vec<Cell>> = (0..timing.samples).map(|_| run()).collect();
        let mut cells = samples[0].clone();
        for sample in &samples[1..] {
            let names = |cells: &[Cell]| cells.iter().map(|c| c.name.clone()).collect::<Vec<_>>();
            assert_eq!(names(sample), names(&cells), "{artefact}: cells moved");
            for (a, b) in cells.iter().zip(sample) {
                assert_eq!(
                    a.counters, b.counters,
                    "{artefact}/{}: counters moved",
                    a.name
                );
            }
        }
        for (i, cell) in cells.iter_mut().enumerate() {
            for (j, (_, nanos)) in cell.wall_ns.iter_mut().enumerate() {
                let mut all: Vec<u64> = samples.iter().map(|s| s[i].wall_ns[j].1).collect();
                all.sort_unstable();
                *nanos = all[all.len() / 2];
            }
        }
        Envelope {
            artefact: artefact.to_owned(),
            timing,
            cells,
        }
    }

    /// The cell called `name`.
    pub fn cell(&self, name: &str) -> Option<&Cell> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// The file the envelope is written to: `BENCH_<artefact>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.artefact)
    }

    /// The JSON document, one cell per line so that a refreshed file's
    /// diff shows which cells moved.
    pub fn encode(&self) -> String {
        let head = object(&[
            ("artefact", &self.artefact),
            ("schema", &SCHEMA),
            ("timing", &self.timing),
        ])
        .encode();
        let cells: Vec<String> = self.cells.iter().map(|c| c.to_json().encode()).collect();
        format!(
            "{},\"cells\":[\n{}\n]}}\n",
            head.strip_suffix('}').expect("an object"),
            cells.join(",\n")
        )
    }

    /// Writes [`encode`](Self::encode) to [`file_name`](Self::file_name)
    /// in the working directory.
    pub fn write(&self) -> std::io::Result<()> {
        std::fs::write(self.file_name(), self.encode())
    }

    /// The cells as text tables. Consecutive cells with the same fields
    /// share one table; varying fields are marked `~`, timings `ns`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut start = 0;
        while start < self.cells.len() {
            let header = columns(&self.cells[start]);
            let end = start
                + self.cells[start..]
                    .iter()
                    .take_while(|c| columns(c) == header)
                    .count();
            let rows: Vec<Vec<String>> = self.cells[start..end].iter().map(row).collect();
            let mut widths: Vec<usize> = vec![0; header.len()];
            for r in std::iter::once(&header).chain(&rows) {
                for (w, v) in widths.iter_mut().zip(r) {
                    *w = (*w).max(v.chars().count());
                }
            }
            for r in std::iter::once(&header).chain(&rows) {
                let line: Vec<String> = r
                    .iter()
                    .zip(&widths)
                    .enumerate()
                    .map(|(i, (v, &w))| {
                        if i == 0 {
                            format!("{v:<w$}")
                        } else {
                            format!("{v:>w$}")
                        }
                    })
                    .collect();
                out.push_str(line.join("  ").trim_end());
                out.push('\n');
            }
            start = end;
        }
        out
    }
}

fn columns(cell: &Cell) -> Vec<String> {
    std::iter::once("cell".to_owned())
        .chain(cell.counters.iter().map(|(k, _)| k.clone()))
        .chain(cell.varying.iter().map(|(k, _)| format!("~{k}")))
        .chain(cell.wall_ns.iter().map(|(k, _)| format!("{k} ns")))
        .collect()
}

fn row(cell: &Cell) -> Vec<String> {
    let show = |v: &Json| match v {
        Json::Str(s) => s.clone(),
        other => other.encode(),
    };
    std::iter::once(cell.name.clone())
        .chain(cell.counters.iter().map(|(_, v)| show(v)))
        .chain(cell.varying.iter().map(|(_, v)| show(v)))
        .chain(cell.wall_ns.iter().map(|(_, v)| v.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_runs_warmup_plus_samples_and_keeps_the_median() {
        let mut calls = 0u64;
        let env = Envelope::measure(
            "t",
            Timing {
                warmup: 1,
                samples: 5,
            },
            || {
                calls += 1;
                // Samples 2..=6 time 20, 30, 10, 50, 40: the median is 30.
                let nanos = [0, 0, 20, 30, 10, 50, 40][calls as usize];
                vec![Cell::new("a").counter("k", 7usize).wall("run", nanos)]
            },
        );
        assert_eq!(calls, 6);
        assert_eq!(env.cells[0].wall_ns, [("run".to_owned(), 30)]);
        assert_eq!(env.cell("a").and_then(|c| c.get("k")), Some(&Json::Int(7)));
    }

    #[test]
    #[should_panic(expected = "counters moved")]
    fn measure_rejects_counters_that_move_between_samples() {
        let mut calls = 0usize;
        Envelope::measure("t", Timing::KERNEL, || {
            calls += 1;
            vec![Cell::new("a").counter("k", calls)]
        });
    }

    #[test]
    fn encoding_parses_and_renders_every_field() {
        let env = Envelope {
            artefact: "t".into(),
            timing: Timing::ONCE,
            cells: vec![
                Cell::new("x")
                    .counter("outcome", "proven")
                    .counter("steps", 12usize)
                    .varying("worker", 3usize)
                    .wall("run", 99),
                Cell::new("y").counter("missing", None::<usize>),
            ],
        };
        let doc = muml_obs::json::parse(&env.encode()).expect("valid JSON");
        assert_eq!(doc.get("artefact").and_then(Json::as_str), Some("t"));
        assert_eq!(doc.get("schema").and_then(Json::as_int), Some(1));
        let text = env.render();
        assert!(text.contains("~worker"), "{text}");
        assert!(text.contains("run ns"), "{text}");
        assert!(text.contains("proven"), "{text}");
        assert_eq!(text.lines().count(), 4, "{text}");
        assert_eq!(env.file_name(), "BENCH_t.json");
    }
}
