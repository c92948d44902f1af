//! `repro` — regenerates every figure, listing, and experiment table of the
//! paper (DESIGN.md §3 maps each artefact to its command).
//!
//! ```text
//! repro fig1|…|fig7|listing1_1|…|listing1_5   # print a figure or listing
//! repro fig2|check|incr|tables|fleet|storm|warm|probe|chaos
//!                          # measure and print the benchmark's cells
//! repro <benchmark> --json # also write BENCH_<benchmark>.json
//! repro warm --store DIR   # warm-start against a persistent store
//! repro all
//! ```
//!
//! Every benchmark builds one envelope (DESIGN.md §19): named cells of
//! deterministic counters, run-to-run fields and median wall times.

use std::path::PathBuf;
use std::time::Duration;

use muml_automata::{to_dot, Universe};
use muml_bench::campaign::{railcab_campaign, CampaignOptions};
use muml_bench::envelope::{timed, Cell, Envelope, Timing};
use muml_bench::{chaos, experiments, incr, kernel, probe, storm, warm};
use muml_core::{render_report, IntegrationVerdict};
use muml_fleet::{JobOutcome, JobResult};
use muml_obs::json::Json;
use muml_obs::Collector;
use muml_railcab::scenario;
use muml_serve::{run_fleet, ServeConfig};

/// The artefacts that only print.
const FIGURES: [&str; 12] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "listing1_1",
    "listing1_2",
    "listing1_3",
    "listing1_4",
    "listing1_5",
];

/// The artefacts that measure. `fig2` is both: bare it prints the figure,
/// with `--json` it measures the walkthrough's loop.
const BENCHMARKS: [&str; 9] = [
    "fig2", "check", "incr", "tables", "fleet", "storm", "warm", "probe", "chaos",
];

/// Workers of `repro fleet`'s pooled run.
const FLEET_WORKERS: usize = 4;

fn usage() {
    eprintln!("usage: repro <artefact> [--json] [--store DIR]");
    eprintln!("  figures: {}", FIGURES.join("|"));
    eprintln!("  benchmarks: {}", BENCHMARKS.join("|"));
    eprintln!("  or `all`");
    eprintln!("  --json writes a benchmark's envelope to BENCH_<benchmark>.json");
    eprintln!("  --store DIR sets the `warm` store directory (default: a fresh temp dir)");
}

fn fail(message: &str) -> ! {
    eprintln!("{message}");
    usage();
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut store: Option<PathBuf> = None;
    let mut what: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--store" => match iter.next() {
                Some(dir) => store = Some(PathBuf::from(dir)),
                None => fail("--store requires a directory path"),
            },
            flag if flag.starts_with("--") => fail(&format!("unknown flag `{flag}`")),
            artefact => {
                what.get_or_insert_with(|| artefact.to_owned());
            }
        }
    }
    let what = what.as_deref().unwrap_or("all");
    if what != "all" && !FIGURES.contains(&what) && !BENCHMARKS.contains(&what) {
        fail(&format!("unknown artefact `{what}`"));
    }
    if json && !BENCHMARKS.contains(&what) {
        fail(&format!(
            "--json is only supported for the benchmarks: {}",
            BENCHMARKS.join(", ")
        ));
    }
    if store.is_some() && what != "warm" {
        fail("--store is only supported for `warm`");
    }
    if what == "all" {
        FIGURES.iter().for_each(|f| figure(f));
        BENCHMARKS.iter().for_each(|b| benchmark(b, None, false));
    } else if FIGURES.contains(&what) && !json {
        figure(what);
    } else {
        benchmark(what, store, json);
    }
}

fn heading(title: &str) {
    println!("\n=== {title} ===");
}

/// Measures one benchmark, prints its cells and, with `json`, writes
/// `BENCH_<benchmark>.json` into the working directory.
fn benchmark(what: &str, store: Option<PathBuf>, json: bool) {
    heading(&format!("Benchmark `{what}`"));
    let envelope = match what {
        "fig2" => Envelope::measure(what, Timing::KERNEL, fig2_cells),
        "check" => Envelope::measure(what, Timing::KERNEL, kernel::check_cells),
        "incr" => Envelope::measure(what, Timing::KERNEL, incr::incr_cells),
        "tables" => Envelope::measure(what, Timing::KERNEL, experiments::table_cells),
        "fleet" => Envelope::measure(what, Timing::ONCE, fleet_cells),
        "storm" => Envelope::measure(what, Timing::ONCE, || {
            storm::storm_campaign(&storm::STORM_RATES).cells()
        }),
        "warm" => warm_envelope(store),
        "probe" => Envelope::measure(what, Timing::ONCE, || {
            probe::probe_campaign(Duration::from_micros(200)).cells()
        }),
        "chaos" => Envelope::measure(what, Timing::ONCE, || {
            chaos::chaos_campaign(&chaos::CHAOS_RATES).cells()
        }),
        _ => unreachable!("validated in main"),
    };
    print!("{}", envelope.render());
    // The ratio of the total cell's first two timings: printed, never
    // stored, and compared with the cell's `target` if it has one.
    if let Some(total) = envelope.cell("total") {
        if let [(slow, a), (fast, b), ..] = total.wall_ns.as_slice() {
            let ratio = *a as f64 / (*b).max(1) as f64;
            println!("{slow}/{fast}: {ratio:.1}x");
            if let Some(Json::Float(target)) = total.get("target") {
                if ratio < *target {
                    println!("warning: {ratio:.1}x is below the {target:.1}x target");
                }
            }
        }
    }
    if json {
        envelope
            .write()
            .unwrap_or_else(|e| panic!("write {}: {e}", envelope.file_name()));
        println!(
            "wrote {} ({} cells)",
            envelope.file_name(),
            envelope.cells.len()
        );
    }
}

/// `repro fig2 --json`: the Figure-2 walkthrough (correct shuttle) with an
/// event sink. A `run` cell holds the loop's totals and phase times; one
/// cell per event holds its payload without `nanos` as counters and its
/// `nanos` as wall time (`event/00/…`); every per-iteration figure follows
/// from the event cells that carry its `iteration`.
fn fig2_cells() -> Vec<Cell> {
    let u = Universe::new();
    let mut shuttle = muml_railcab::correct_shuttle(&u);
    let mut sink = Collector::new();
    let report = scenario::integrate_with(&u, &mut shuttle, &mut sink);
    let stats = &report.stats;
    let t = &stats.timings;
    let mut cells = vec![Cell::new("run")
        .counter(
            "outcome",
            if report.verdict.proven() {
                "proven"
            } else {
                "real_fault"
            },
        )
        .counter("iterations", stats.iterations)
        .counter("peak_composed_states", stats.peak_composed_states)
        .counter("tests_executed", stats.tests_executed)
        .counter("test_steps", stats.test_steps)
        .counter("driven_steps", stats.driven_steps)
        .counter(
            "checker_fixpoint_iterations",
            stats.checker_fixpoint_iterations,
        )
        .counter("checker_labeled_states", stats.checker_labeled_states)
        .counter("expanded_labels", stats.expanded_labels)
        .counter("family_guards", stats.family_guards)
        .wall("compose", t.compose_ns)
        .wall("check", t.check_ns)
        .wall("test", t.test_ns)
        .wall("learn", t.learn_ns)
        .wall("probe", t.probe_ns)];
    for (i, event) in sink.events.iter().enumerate() {
        let payload = event.to_json();
        let mut cell = Cell::new(format!("event/{i:02}/{}", event.kind()));
        if let Some(nanos) = payload.get("nanos").and_then(Json::as_int) {
            cell = cell.wall("run", nanos as u64);
        }
        cells.push(cell.counters_from(payload, &["event", "nanos"]));
    }
    cells
}

/// `repro fleet`: the RailCab variants × faults campaign, run on one
/// worker and on [`FLEET_WORKERS`]; both reports must fingerprint
/// identically. A `total` cell holds the campaign's histogram and health
/// sums, then one cell per job (which worker ran it is `varying`).
fn fleet_cells() -> Vec<Cell> {
    let options = CampaignOptions::default();
    let run = |workers: usize| {
        timed(|| {
            run_fleet(
                railcab_campaign(&options),
                &ServeConfig::default().with_workers(workers),
            )
        })
    };
    let (serial, serial_ns) = run(1);
    let (pooled, pooled_ns) = run(FLEET_WORKERS);
    assert_eq!(
        serial.fingerprint(),
        pooled.fingerprint(),
        "aggregated campaign reports must not depend on the worker count"
    );
    let sum = |f: fn(&JobResult) -> usize| pooled.results.iter().map(f).sum::<usize>();
    let total = Cell::new("total")
        .counter("jobs", pooled.results.len())
        .counter("latency_us", options.latency.as_micros() as u64)
        .counter("serial_workers", serial.workers)
        .counter("workers", pooled.workers)
        .counter("fingerprints_match", true);
    let total = pooled
        .histogram()
        .into_iter()
        .fold(total, |cell, (name, count)| cell.counter(name, count))
        .counter("attempts", sum(|r| r.attempts))
        .counter("retries", sum(|r| r.attempts.saturating_sub(1)))
        .counter("trace_cache_hits", sum(|r| r.stats.trace_cache_hits))
        .counter(
            "trace_cache_saved_steps",
            sum(|r| r.stats.trace_cache_saved_steps),
        )
        .counter("dedup_skipped", sum(|r| r.stats.dedup_skipped))
        .wall("serial", serial_ns)
        .wall("pooled", pooled_ns)
        .wall("serial_busy", serial.busy_nanos())
        .wall("pooled_busy", pooled.busy_nanos());
    let jobs = pooled.results.iter().map(|r| {
        Cell::new(r.request.name.as_str())
            .counter("job", r.request.id)
            .counter("scenario", r.request.scenario.as_str())
            .counter("pattern", r.request.pattern.as_str())
            .counter("variant", r.request.variant.as_str())
            .counter("fault", r.request.fault.clone())
            .counter("outcome", r.outcome.name())
            .counter(
                "property",
                match &r.outcome {
                    JobOutcome::RealFault { property } => Some(property.clone()),
                    _ => None,
                },
            )
            .counter(
                "quarantined",
                match &r.outcome {
                    JobOutcome::Inconclusive { quarantined } => Some(*quarantined),
                    _ => None,
                },
            )
            .counter("iterations", r.iterations)
            .counter("driven_steps", r.stats.driven_steps)
            .counter("attempts", r.attempts)
            .varying("worker", r.worker)
            .wall("run", r.nanos)
    });
    std::iter::once(total).chain(jobs).collect()
}

/// `repro warm [--store DIR]`: the RailCab campaign store-disabled, cold
/// against the store and seeded from it (the asserts run inside
/// `warm_campaign`). Without `--store` the store lives in a fresh temp
/// directory that is removed afterwards; with it, a second invocation
/// exercises the pre-warmed path (the cache-poisoning guard).
fn warm_envelope(store: Option<PathBuf>) -> Envelope {
    let ephemeral = store.is_none();
    let dir = store.unwrap_or_else(|| {
        let dir = std::env::temp_dir().join(format!("muml-repro-warm-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    });
    std::fs::create_dir_all(&dir).expect("create store directory");
    let mut prewarmed = false;
    let envelope = Envelope::measure("warm", Timing::ONCE, || {
        let report = warm::warm_campaign(&dir);
        prewarmed = report.store_prewarmed;
        println!(
            "driven steps saved: {:.0}%, tests saved: {:.0}%",
            100.0 * report.driven_reduction(),
            100.0 * report.test_reduction()
        );
        report.cells()
    });
    println!(
        "verdicts identical across all three runs; store {}",
        if prewarmed {
            "was pre-warmed (step reduction not comparable)"
        } else {
            "started cold"
        }
    );
    if ephemeral {
        std::fs::remove_dir_all(&dir).ok();
    }
    envelope
}

fn figure(what: &str) {
    let u = Universe::new();
    match what {
        "fig1" => {
            heading("Figure 1 — the DistanceCoordination pattern");
            let p = muml_railcab::distance_coordination(&u);
            println!("pattern: {}", p.name);
            println!(
                "constraint: {}",
                p.constraint
                    .as_ref()
                    .map(|c| c.show(&u))
                    .unwrap_or_default()
            );
            for r in &p.roles {
                println!(
                    "role {} ({} states), invariant: {}",
                    r.name,
                    r.behavior.state_count(),
                    r.invariant.as_ref().map(|i| i.show(&u)).unwrap_or_default()
                );
            }
            println!(
                "connector `{}`: {} message kinds, delay {}",
                p.connector.name,
                p.connector.kinds.len(),
                p.connector.delay
            );
            let report = muml_arch::verify_pattern(&p).expect("pattern checkable");
            println!(
                "pattern verification: {} ({} composed states)",
                if report.ok() { "OK" } else { "VIOLATED" },
                report.state_count
            );
        }
        "fig2" => {
            heading("Figure 2 — the iterative process (correct shuttle)");
            let (report, _) = scenario::integrate_correct(&u);
            print!("{}", render_report(&report));
        }
        "fig3" => {
            heading("Figure 3 — the chaotic automaton");
            print!("{}", scenario::fig3_chaotic_automaton(&u));
        }
        "fig4" => {
            heading("Figure 4 — trivial initial automaton and its chaotic closure");
            let (m0, a0) = scenario::fig4_initial(&u);
            println!(
                "(4a) M_l^0: {} state, {} transitions, {} refusals",
                m0.state_count(),
                m0.transition_count(),
                m0.refusal_count()
            );
            print!("{}", to_dot(&m0.known_automaton()));
            println!("(4b) M_a^0 = chaos(M_l^0): {} states", a0.state_count());
            print!("{}", to_dot(&a0));
        }
        "fig5" => {
            heading("Figure 5 — known behaviour of the context (front role)");
            print!("{}", scenario::fig5_context(&u));
        }
        "fig6" => {
            heading("Figure 6 — synthesized behaviour of the faulty shuttle (conflict)");
            let (report, dot) = scenario::integrate_faulty(&u);
            print!("{dot}");
            if let IntegrationVerdict::RealFault { property, .. } = &report.verdict {
                println!("conflict with environment: {property}");
            }
        }
        "fig7" => {
            heading("Figure 7 — correct synthesized behaviour w.r.t. context");
            let (report, dot) = scenario::integrate_correct(&u);
            print!("{dot}");
            println!(
                "verdict: {}",
                if report.verdict.proven() {
                    "PROVEN (integration correct)"
                } else {
                    "unexpected"
                }
            );
        }
        "listing1_1" => {
            heading("Listing 1.1 — counterexample of an early verification step");
            print!("{}", scenario::listing_1_1(&u));
        }
        "listing1_2" => {
            heading("Listing 1.2 — monitored relevant events for deterministic replay");
            let (minimal, _) = scenario::listings_1_2_and_1_3(&u);
            print!("{minimal}");
        }
        "listing1_3" => {
            heading("Listing 1.3 — monitoring all relevant events (replay)");
            let (_, full) = scenario::listings_1_2_and_1_3(&u);
            print!("{full}");
        }
        "listing1_4" => {
            heading("Listing 1.4 — counterexample with conflict in synthesized behaviour");
            let (report, _) = scenario::integrate_faulty(&u);
            if let IntegrationVerdict::RealFault {
                property, rendered, ..
            } = &report.verdict
            {
                print!("{rendered}");
                println!("violated: {property}");
                println!(
                    "found after {} iterations — fast conflict detection",
                    report.stats.iterations
                );
            }
        }
        "listing1_5" => {
            heading("Listing 1.5 — successful learning step (all relevant events)");
            print!("{}", scenario::listing_1_5(&u));
        }
        _ => unreachable!("validated in main"),
    }
}
