//! `repro` — regenerates every figure, listing, and experiment table of the
//! paper (DESIGN.md §3 maps each artefact to its command).
//!
//! ```text
//! repro fig1|fig2|fig3|fig4|fig5|fig6|fig7
//! repro fig2 --json          # also writes BENCH_loop.json (loop telemetry)
//! repro listing1_1|listing1_2|listing1_3|listing1_4|listing1_5
//! repro table_a|table_b|table_c|table_d|table_e|table_f
//! repro check                # old vs new checker kernel, printed
//! repro check --json         # also writes BENCH_check.json
//! repro fleet [--jobs N]     # batch campaign, 1 worker vs N workers
//! repro fleet --json         # also writes BENCH_fleet.json
//! repro incr                 # incremental vs cold recompose+check
//! repro incr --json          # also writes BENCH_incr.json
//! repro storm                # flake storm: verdicts under rig fault rates
//! repro storm --json         # also writes BENCH_storm.json
//! repro serve [--clients N]  # daemon load test: N concurrent wire clients
//! repro serve --json         # also writes BENCH_serve.json
//! repro warm [--store DIR]   # warm-start: campaign twice against a store
//! repro warm --json          # also writes BENCH_warm.json
//! repro probe                # trace cache + parallel probes vs serial
//! repro probe --json         # also writes BENCH_probe.json
//! repro all
//! ```

use std::time::Instant;

use muml_automata::{chaotic_closure, compose2, to_dot, Composition, Universe};
use muml_bench::experiments::{render_rows, table_a, table_b, table_c, table_e};
use muml_bench::workload::counter_workload;
use muml_core::{
    default_mapper, initial_knowledge, render_report, IntegrationReport, IntegrationVerdict,
};
use muml_logic::{parse, Checker, Formula};
use muml_obs::json::Json;
use muml_obs::{Collector, LoopEvent, NullSink};
use muml_railcab::scenario;
use muml_testkit::ReferenceChecker;

const KNOWN: [&str; 26] = [
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
    "table_a",
    "table_b",
    "table_c",
    "table_d",
    "table_e",
    "table_f",
    "check",
    "fleet",
    "incr",
    "storm",
    "serve",
    "warm",
    "probe",
    "chaos",
];

/// The artefacts that support `--json`, and the file each one writes. Both
/// the usage text and the `--json` gate in `main` derive from this table,
/// so a new JSON-emitting subcommand is one entry here plus its dispatch
/// arm.
const JSON_SUBCOMMANDS: [(&str, &str); 9] = [
    ("fig2", "BENCH_loop.json"),
    ("check", "BENCH_check.json"),
    ("fleet", "BENCH_fleet.json"),
    ("incr", "BENCH_incr.json"),
    ("storm", "BENCH_storm.json"),
    ("serve", "BENCH_serve.json"),
    ("warm", "BENCH_warm.json"),
    ("probe", "BENCH_probe.json"),
    ("chaos", "BENCH_chaos.json"),
];

fn json_subcommand_names() -> String {
    JSON_SUBCOMMANDS
        .iter()
        .map(|(name, _)| format!("`{name}`"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn usage() {
    eprintln!("usage: repro <artefact> [--json] [--jobs N] [--clients N] [--store DIR]");
    eprintln!("  artefacts: {} or `all`", KNOWN.join("|"));
    let supported = JSON_SUBCOMMANDS
        .iter()
        .map(|(name, file)| format!("`{name}` (writes {file})"))
        .collect::<Vec<_>>()
        .join(", ");
    eprintln!("  --json is supported for {supported}");
    eprintln!("  --jobs N sets the `fleet` worker-pool size (default 4)");
    eprintln!("  --clients N sets the `serve` concurrent-client count (default 8)");
    eprintln!("  --store DIR sets the `warm` store directory (default: a fresh temp dir)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut workers: Option<usize> = None;
    let mut clients: Option<usize> = None;
    let mut store: Option<std::path::PathBuf> = None;
    let mut what: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--jobs" => {
                let value = iter.next().and_then(|v| v.parse::<usize>().ok());
                match value {
                    Some(n) if n >= 1 => workers = Some(n),
                    _ => {
                        eprintln!("--jobs requires a positive integer");
                        usage();
                        std::process::exit(2);
                    }
                }
            }
            "--clients" => {
                let value = iter.next().and_then(|v| v.parse::<usize>().ok());
                match value {
                    Some(n) if n >= 1 => clients = Some(n),
                    _ => {
                        eprintln!("--clients requires a positive integer");
                        usage();
                        std::process::exit(2);
                    }
                }
            }
            "--store" => match iter.next() {
                Some(dir) => store = Some(std::path::PathBuf::from(dir)),
                None => {
                    eprintln!("--store requires a directory path");
                    usage();
                    std::process::exit(2);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                usage();
                std::process::exit(2);
            }
            artefact => {
                what.get_or_insert_with(|| artefact.to_owned());
            }
        }
    }
    let what = what.as_deref().unwrap_or("all");
    if json && !JSON_SUBCOMMANDS.iter().any(|(name, _)| *name == what) {
        eprintln!("--json is only supported for {}", json_subcommand_names());
        usage();
        std::process::exit(2);
    }
    if workers.is_some() && what != "fleet" {
        eprintln!("--jobs is only supported for `fleet`");
        usage();
        std::process::exit(2);
    }
    if clients.is_some() && what != "serve" {
        eprintln!("--clients is only supported for `serve`");
        usage();
        std::process::exit(2);
    }
    if store.is_some() && what != "warm" {
        eprintln!("--store is only supported for `warm`");
        usage();
        std::process::exit(2);
    }
    if what == "all" {
        for k in KNOWN {
            run(k);
        }
    } else if KNOWN.contains(&what) {
        match (what, json) {
            ("fig2", true) => run_fig2_json(),
            ("check", _) => run_check(json),
            ("fleet", _) => run_fleet_cmd(workers.unwrap_or(4), json),
            ("incr", _) => run_incr(json),
            ("storm", _) => run_storm(json),
            ("serve", _) => run_serve_cmd(clients.unwrap_or(8), json),
            ("warm", _) => run_warm(json, store),
            ("probe", _) => run_probe(json),
            ("chaos", _) => run_chaos(json),
            _ => run(what),
        }
    } else {
        eprintln!("unknown artefact `{what}`");
        usage();
        std::process::exit(2);
    }
}

/// `repro fig2 --json`: run the Figure-2 walkthrough (correct shuttle) with
/// an event sink and write `BENCH_loop.json` — one per-iteration record per
/// loop round (phase timings, composed size, checker work, counterexample
/// length, replay steps, learning deltas) plus run-level totals.
fn run_fig2_json() {
    let u = Universe::new();
    // Warm-up pass: on this small artefact the phase timings are
    // microsecond-scale, so first-touch costs (allocator arenas, lazy
    // binding, page faults) would otherwise land in iteration 0 and
    // dominate the recorded numbers.
    let mut warm = muml_railcab::correct_shuttle(&u);
    let _ = scenario::integrate_with(&u, &mut warm, &mut NullSink);

    // Best of three: the workload is deterministic (only the `nanos`
    // payloads vary), and at this scale a single scheduler preemption can
    // double a run's timings, so the fastest run is the stable estimate.
    let mut best: Option<(Collector, IntegrationReport)> = None;
    for _ in 0..3 {
        let mut shuttle = muml_railcab::correct_shuttle(&u);
        let mut sink = Collector::new();
        let report = scenario::integrate_with(&u, &mut shuttle, &mut sink);
        let faster = match &best {
            None => true,
            Some((_, b)) => {
                report.stats.timings.check_ns + report.stats.timings.compose_ns
                    < b.stats.timings.check_ns + b.stats.timings.compose_ns
            }
        };
        if faster {
            best = Some((sink, report));
        }
    }
    let (sink, report) = best.expect("ran at least once");

    let mut iterations: Vec<Json> = Vec::new();
    for index in 0.. {
        let events = sink.iteration(index);
        if events.is_empty() {
            break;
        }
        iterations.push(iteration_record(index, &events));
    }
    let stats = &report.stats;
    let doc = Json::Object(vec![
        ("artefact".into(), Json::Str("fig2".into())),
        (
            "outcome".into(),
            Json::Str(
                if report.verdict.proven() {
                    "proven"
                } else {
                    "real_fault"
                }
                .into(),
            ),
        ),
        ("iterations".into(), Json::Array(iterations)),
        (
            "totals".into(),
            Json::Object(vec![
                ("iterations".into(), Json::from_usize(stats.iterations)),
                (
                    "peak_composed_states".into(),
                    Json::from_usize(stats.peak_composed_states),
                ),
                (
                    "tests_executed".into(),
                    Json::from_usize(stats.tests_executed),
                ),
                ("test_steps".into(), Json::from_usize(stats.test_steps)),
                ("driven_steps".into(), Json::from_usize(stats.driven_steps)),
                (
                    "checker_fixpoint_iterations".into(),
                    Json::from_u64(stats.checker_fixpoint_iterations),
                ),
                (
                    "checker_labeled_states".into(),
                    Json::from_u64(stats.checker_labeled_states),
                ),
                (
                    "expanded_labels".into(),
                    Json::from_u64(stats.expanded_labels),
                ),
                ("family_guards".into(), Json::from_u64(stats.family_guards)),
                (
                    "compose_ns".into(),
                    Json::from_u64(stats.timings.compose_ns),
                ),
                ("check_ns".into(), Json::from_u64(stats.timings.check_ns)),
                ("test_ns".into(), Json::from_u64(stats.timings.test_ns)),
                ("learn_ns".into(), Json::from_u64(stats.timings.learn_ns)),
                ("probe_ns".into(), Json::from_u64(stats.timings.probe_ns)),
            ]),
        ),
        (
            "events".into(),
            Json::Array(sink.events.iter().map(LoopEvent::to_json).collect()),
        ),
    ]);
    std::fs::write("BENCH_loop.json", doc.encode() + "\n").expect("write BENCH_loop.json");
    println!(
        "wrote BENCH_loop.json: {} iterations, {} events, outcome {}",
        report.stats.iterations,
        sink.events.len(),
        if report.verdict.proven() {
            "proven"
        } else {
            "real_fault"
        }
    );
}

/// Folds one iteration's events into a flat record.
fn iteration_record(index: usize, events: &[&LoopEvent]) -> Json {
    let mut product_states = 0usize;
    let mut composed_transitions = 0usize;
    let mut expanded_labels = 0u64;
    let mut family_guards = 0u64;
    let mut compose_ns = 0u64;
    let mut holds = false;
    let mut fixpoint_iterations = 0u64;
    let mut labeled_states = 0u64;
    let mut check_ns = 0u64;
    let mut counterexample_length: Option<usize> = None;
    let mut replay_steps = 0usize;
    let mut driven_steps = 0usize;
    let mut test_ns = 0u64;
    let mut delta_states = 0usize;
    let mut delta_transitions = 0usize;
    let mut delta_refusals = 0usize;
    let mut probes = 0usize;
    let mut probe_ns = 0u64;
    for e in events {
        match e {
            LoopEvent::Composed {
                product_states: ps,
                transitions,
                expanded_labels: el,
                family_guards: fg,
                nanos,
                ..
            } => {
                product_states = *ps;
                composed_transitions = *transitions;
                expanded_labels += el;
                family_guards += fg;
                compose_ns += nanos;
            }
            LoopEvent::ModelChecked {
                holds: h,
                fixpoint_iterations: fi,
                labeled_states: ls,
                nanos,
                ..
            } => {
                holds = *h;
                fixpoint_iterations += fi;
                labeled_states += ls;
                check_ns += nanos;
            }
            LoopEvent::CounterexampleExtracted { length, .. } => {
                counterexample_length.get_or_insert(*length);
            }
            LoopEvent::ReplayExecuted {
                steps,
                driven_steps: ds,
                nanos,
                ..
            } => {
                replay_steps += steps;
                driven_steps += ds;
                test_ns += nanos;
            }
            LoopEvent::LearnStep {
                delta_states: dq,
                delta_transitions: dt,
                delta_refusals: dr,
                ..
            } => {
                delta_states += dq;
                delta_transitions += dt;
                delta_refusals += dr;
            }
            LoopEvent::FrontierProbed {
                probes: p, nanos, ..
            } => {
                probes += p;
                probe_ns += nanos;
            }
            _ => {}
        }
    }
    Json::Object(vec![
        ("iteration".into(), Json::from_usize(index)),
        ("product_states".into(), Json::from_usize(product_states)),
        (
            "composed_transitions".into(),
            Json::from_usize(composed_transitions),
        ),
        ("expanded_labels".into(), Json::from_u64(expanded_labels)),
        ("family_guards".into(), Json::from_u64(family_guards)),
        ("holds".into(), Json::Bool(holds)),
        (
            "fixpoint_iterations".into(),
            Json::from_u64(fixpoint_iterations),
        ),
        ("labeled_states".into(), Json::from_u64(labeled_states)),
        (
            "counterexample_length".into(),
            match counterexample_length {
                Some(n) => Json::from_usize(n),
                None => Json::Null,
            },
        ),
        ("replay_steps".into(), Json::from_usize(replay_steps)),
        ("driven_steps".into(), Json::from_usize(driven_steps)),
        ("delta_states".into(), Json::from_usize(delta_states)),
        (
            "delta_transitions".into(),
            Json::from_usize(delta_transitions),
        ),
        ("delta_refusals".into(), Json::from_usize(delta_refusals)),
        ("probes".into(), Json::from_usize(probes)),
        ("compose_ns".into(), Json::from_u64(compose_ns)),
        ("check_ns".into(), Json::from_u64(check_ns)),
        ("test_ns".into(), Json::from_u64(test_ns)),
        ("probe_ns".into(), Json::from_u64(probe_ns)),
    ])
}

fn heading(title: &str) {
    println!("\n=== {title} ===");
}

/// The late-iteration composition of the counter workload: the component's
/// context-reachable prefix pre-learned, chaotically closed, composed with
/// the driver. Shared by `table_d` and `check`. Returns the closure state
/// count alongside the composition.
fn late_iteration_composition(w: &muml_bench::workload::CounterWorkload) -> (usize, Composition) {
    let n = w.n;
    let mapper = default_mapper("counter");
    let mut inc = initial_knowledge(&w.universe, &w.component, &mapper);
    let up = w.universe.signals(["up"]);
    let mut states = vec!["c0".to_owned()];
    let mut labels = Vec::new();
    for i in 1..=(n / 2) {
        states.push(format!("c{i}"));
        labels.push(muml_automata::Label::new(
            up,
            muml_automata::SignalSet::EMPTY,
        ));
    }
    inc.learn(&muml_automata::Observation::regular(states, labels))
        .expect("consistent");
    let chaos = w.universe.prop("__chaos__");
    let closure = chaotic_closure(&inc, Some(chaos));
    let comp = compose2(&w.context, &closure).expect("composes");
    (closure.state_count(), comp)
}

/// The property set `repro check` times both kernels on: deadlock freedom
/// plus a spread of unbounded (worklist) and bounded (backward-induction)
/// CCTL shapes over the only two predicates every composition carries.
const CHECK_FORMULAS: [&str; 6] = [
    "AG !deadlock",
    "EF deadlock",
    "AF[1,6] deadlock",
    "E[!__chaos__ U deadlock]",
    "AG (__chaos__ -> EF deadlock)",
    "EG !deadlock",
];

/// `repro check [--json]`: benchmarks the checker on a counter ladder and,
/// with `--json`, writes it to `BENCH_check.json`.
///
/// Each rung (`sizes` in the JSON) runs the pre-rewrite sweep kernel
/// ([`ReferenceChecker`]) against the bitset/worklist kernel ([`Checker`])
/// on a table-D composition, with verdict agreement asserted. Timings
/// are taken warm (one discarded warm-up pass per size) and best-of-three
/// — as in `fig2 --json` — because at these sizes a single scheduler
/// preemption would otherwise dominate the recorded number.
fn run_check(json: bool) {
    heading("Check — sweep kernel (old) vs bitset/worklist kernel (new)");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>8} {:>10} {:>8}",
        "n", "composed", "old ns", "new ns", "speedup", "old iters", "new it"
    );
    let mut sizes: Vec<Json> = Vec::new();
    let (mut total_old_ns, mut total_new_ns) = (0u64, 0u64);
    for n in [8usize, 16, 32, 64, 128] {
        let w = counter_workload(n, n / 2);
        let (_, comp) = late_iteration_composition(&w);
        let fs: Vec<Formula> = CHECK_FORMULAS
            .iter()
            .map(|s| parse(&w.universe, s).expect("formula parses"))
            .collect();

        // Warm-up pass: first-touch costs (allocator arenas, page faults)
        // land here instead of in the recorded runs.
        {
            let mut old = ReferenceChecker::new(&comp.automaton);
            let mut new = Checker::with_csr(&comp.automaton, &comp.csr);
            for f in &fs {
                old.satisfies(f);
                new.satisfies(f);
            }
        }

        // Best of three: both kernels are deterministic, so only the
        // nanoseconds vary between runs and the fastest is the stable
        // estimate.
        let mut old_best: Option<(u64, Vec<bool>, u64, u64)> = None;
        for _ in 0..3 {
            let start = Instant::now();
            let mut old = ReferenceChecker::new(&comp.automaton);
            let verdicts: Vec<bool> = fs.iter().map(|f| old.satisfies(f)).collect();
            let ns = start.elapsed().as_nanos() as u64;
            if old_best.as_ref().is_none_or(|b| ns < b.0) {
                old_best = Some((ns, verdicts, old.iterations, old.labeled_states));
            }
        }
        let (old_ns, old_verdicts, old_iters, old_labeled) = old_best.expect("ran three times");
        let mut new_best: Option<(u64, Vec<bool>, muml_logic::CheckStats)> = None;
        for _ in 0..3 {
            let start = Instant::now();
            let mut new = Checker::with_csr(&comp.automaton, &comp.csr);
            let verdicts: Vec<bool> = fs.iter().map(|f| new.satisfies(f)).collect();
            let ns = start.elapsed().as_nanos() as u64;
            if new_best.as_ref().is_none_or(|b| ns < b.0) {
                new_best = Some((ns, verdicts, new.stats));
            }
        }
        let (new_ns, new_verdicts, nstats) = new_best.expect("ran three times");

        assert_eq!(
            old_verdicts, new_verdicts,
            "kernel verdicts diverge at n={n}"
        );
        let speedup = old_ns as f64 / new_ns.max(1) as f64;
        total_old_ns += old_ns;
        total_new_ns += new_ns;
        println!(
            "{n:>6} {:>10} {old_ns:>12} {new_ns:>12} {speedup:>7.1}x {:>10} {:>8}",
            comp.automaton.state_count(),
            old_iters,
            nstats.fixpoint_iterations,
        );
        sizes.push(Json::Object(vec![
            ("n".into(), Json::from_usize(n)),
            (
                "product_states".into(),
                Json::from_usize(comp.automaton.state_count()),
            ),
            (
                "verdicts".into(),
                Json::Array(new_verdicts.iter().map(|&v| Json::Bool(v)).collect()),
            ),
            (
                "old".into(),
                Json::Object(vec![
                    ("check_ns".into(), Json::from_u64(old_ns)),
                    ("fixpoint_iterations".into(), Json::from_u64(old_iters)),
                    ("labeled_states".into(), Json::from_u64(old_labeled)),
                ]),
            ),
            (
                "new".into(),
                Json::Object(vec![
                    ("check_ns".into(), Json::from_u64(new_ns)),
                    (
                        "fixpoint_iterations".into(),
                        Json::from_u64(nstats.fixpoint_iterations),
                    ),
                    (
                        "labeled_states".into(),
                        Json::from_u64(nstats.labeled_states),
                    ),
                    ("words_touched".into(), Json::from_u64(nstats.words_touched)),
                    ("worklist_pops".into(), Json::from_u64(nstats.worklist_pops)),
                    (
                        "peak_resident_sets".into(),
                        Json::from_u64(nstats.peak_resident_sets),
                    ),
                ]),
            ),
            ("speedup".into(), Json::Float(speedup)),
        ]));
    }
    let total_speedup = total_old_ns as f64 / total_new_ns.max(1) as f64;
    println!("total: old {total_old_ns} ns, new {total_new_ns} ns ({total_speedup:.1}x)");

    if json {
        let doc = Json::Object(vec![
            ("artefact".into(), Json::Str("check".into())),
            ("timing".into(), Json::Str("warm, best of 3".into())),
            (
                "formulas".into(),
                Json::Array(
                    CHECK_FORMULAS
                        .iter()
                        .map(|s| Json::Str((*s).into()))
                        .collect(),
                ),
            ),
            ("sizes".into(), Json::Array(sizes)),
            (
                "totals".into(),
                Json::Object(vec![
                    ("old_check_ns".into(), Json::from_u64(total_old_ns)),
                    ("new_check_ns".into(), Json::from_u64(total_new_ns)),
                    ("speedup".into(), Json::Float(total_speedup)),
                ]),
            ),
        ]);
        std::fs::write("BENCH_check.json", doc.encode() + "\n").expect("write BENCH_check.json");
        println!("wrote BENCH_check.json ({total_speedup:.1}x overall)");
    }
}

/// `repro incr [--json]`: incremental recomposition + warm-started checking
/// (the `IntegrationConfig::incremental` default) against cold
/// per-iteration rebuilds, over the RailCab walkthroughs, scalable counter
/// loops, and the `full`-variant fault campaign at zero harness latency.
/// Every cold/incremental pair is asserted verdict-and-trace identical —
/// the differential oracle of DESIGN.md §12 — before any timing is
/// reported; with `--json` the numbers land in `BENCH_incr.json`.
fn run_incr(json: bool) {
    use muml_bench::workload::{seed_fault, ticker_counter_workload, CounterWorkload};
    use muml_core::{verify_integration, IntegrationConfig, LegacyUnit};
    use muml_legacy::{fault_matrix, inject, Fault, HiddenMealy, PortMap};
    use muml_railcab::{correct_shuttle, faulty_shuttle, front_context, shuttle_variants};

    struct Row {
        name: String,
        iterations: usize,
        outcome: &'static str,
        cold_ns: u64,
        incr_ns: u64,
        incr_recomposes: usize,
        warm_states: u64,
        product_bytes: usize,
    }

    fn config(incremental: bool) -> IntegrationConfig {
        IntegrationConfig::default().with_incremental(incremental)
    }

    fn outcome(report: &IntegrationReport) -> &'static str {
        if report.verdict.proven() {
            "proven"
        } else {
            "real_fault"
        }
    }

    fn railcab_run(
        build: fn(&Universe) -> HiddenMealy,
        fault: Option<&Fault>,
        incremental: bool,
    ) -> IntegrationReport {
        let u = Universe::new();
        let context = front_context(&u);
        let mut shuttle = build(&u);
        if let Some(f) = fault {
            inject(&mut shuttle, &u, f).expect("fault targets an existing rule");
        }
        let props = vec![scenario::pattern_constraint(&u)];
        let mut units = [LegacyUnit::new(&mut shuttle, scenario::rear_port_map(&u))];
        verify_integration(&u, &context, &props, &mut units, &config(incremental))
            .expect("walkthrough terminates")
    }

    fn counter_run(
        mut w: CounterWorkload,
        fault_depth: Option<usize>,
        incremental: bool,
    ) -> IntegrationReport {
        if let Some(d) = fault_depth {
            seed_fault(&mut w, d);
        }
        let mut units = [LegacyUnit::new(
            &mut w.component,
            PortMap::with_default("p"),
        )];
        verify_integration(
            &w.universe,
            &w.context,
            &[],
            &mut units,
            &config(incremental),
        )
        .expect("counter loop terminates")
    }

    /// The differential oracle: the two modes must agree on everything an
    /// observer can see — verdict, iteration count, per-iteration product
    /// sizes, violated properties, rendered counterexample traces,
    /// outcomes, and the learned-model sizes.
    fn assert_equivalent(name: &str, cold: &IntegrationReport, incr: &IntegrationReport) {
        assert_eq!(
            cold.verdict.proven(),
            incr.verdict.proven(),
            "{name}: verdicts diverge between cold and incremental"
        );
        assert_eq!(
            cold.stats.iterations, incr.stats.iterations,
            "{name}: iteration counts diverge"
        );
        assert_eq!(
            cold.iterations.len(),
            incr.iterations.len(),
            "{name}: iteration-record counts diverge"
        );
        for (a, b) in cold.iterations.iter().zip(&incr.iterations) {
            let i = a.index;
            assert_eq!(
                a.composed_states, b.composed_states,
                "{name} iteration {i}: product sizes diverge"
            );
            assert_eq!(
                a.violated, b.violated,
                "{name} iteration {i}: violated properties diverge"
            );
            assert_eq!(
                a.counterexample, b.counterexample,
                "{name} iteration {i}: counterexample traces diverge"
            );
            assert_eq!(
                a.outcome, b.outcome,
                "{name} iteration {i}: outcomes diverge"
            );
            assert_eq!(
                a.knowledge, b.knowledge,
                "{name} iteration {i}: learned knowledge diverges"
            );
        }
        assert_eq!(
            cold.learned_sizes(),
            incr.learned_sizes(),
            "{name}: learned models diverge"
        );
    }

    fn measure(rows: &mut Vec<Row>, name: String, mut run: impl FnMut(bool) -> IntegrationReport) {
        let cold = run(false);
        let incr = run(true);
        assert_eq!(
            cold.stats.recompose_incremental, 0,
            "{name}: cold mode must never splice"
        );
        assert_equivalent(&name, &cold, &incr);
        // Best of two per mode: the workloads are deterministic and the
        // phase timings are microsecond-scale, so a single scheduler
        // preemption can dominate one measurement (same rationale as the
        // best-of-three in `run_fig2_json`).
        let loop_ns = |r: &IntegrationReport| r.stats.timings.compose_ns + r.stats.timings.check_ns;
        let cold_ns = loop_ns(&cold).min(loop_ns(&run(false)));
        let incr_ns = loop_ns(&incr).min(loop_ns(&run(true)));
        rows.push(Row {
            name,
            iterations: incr.stats.iterations,
            outcome: outcome(&incr),
            cold_ns,
            incr_ns,
            incr_recomposes: incr.stats.recompose_incremental,
            warm_states: incr.stats.checker_warm_states,
            product_bytes: incr.stats.peak_product_bytes,
        });
    }

    heading("Incr — incremental recompose + warm-started check vs cold rebuilds");
    // Warm-up pass: first-touch costs (allocator arenas, lazy binding)
    // would otherwise land in the first measured workload.
    let _ = railcab_run(correct_shuttle, None, true);

    let mut rows: Vec<Row> = Vec::new();
    measure(&mut rows, "fig2/correct".into(), |inc| {
        railcab_run(correct_shuttle, None, inc)
    });
    measure(&mut rows, "fig6/faulty".into(), |inc| {
        railcab_run(faulty_shuttle, None, inc)
    });
    for (n, k) in [(16usize, 14usize), (32, 30), (48, 46)] {
        measure(&mut rows, format!("counter/n={n},k={k}"), |inc| {
            counter_run(counter_workload(n, k), None, inc)
        });
    }
    measure(&mut rows, "counter/n=32,fault@24".into(), |inc| {
        counter_run(counter_workload(32, 30), Some(24), inc)
    });
    // The compose-bound shape: a context of hundreds of states (the
    // driver with a ticker grid), where the incremental splice, not the
    // rig, is the loop's cost.
    measure(&mut rows, "ticker/n=10,k=8".into(), |inc| {
        counter_run(ticker_counter_workload(10, 8), None, inc)
    });

    // The `full`-variant fault campaign at zero harness latency: baseline
    // plus every fault of its deterministic fault matrix.
    let full = shuttle_variants()
        .iter()
        .find(|v| v.name == "full")
        .expect("full variant exists");
    let faults = {
        let u = Universe::new();
        fault_matrix(&(full.build)(&u), &u)
    };
    measure(&mut rows, "campaign/full/baseline".into(), |inc| {
        railcab_run(full.build, None, inc)
    });
    for fault in &faults {
        measure(
            &mut rows,
            format!("campaign/full/{}", fault.describe()),
            |inc| railcab_run(full.build, Some(fault), inc),
        );
    }

    println!(
        "{:<42} {:>5} {:>10} {:>12} {:>12} {:>8} {:>6} {:>8} {:>10}",
        "workload",
        "iters",
        "outcome",
        "cold ns",
        "incr ns",
        "speedup",
        "incr#",
        "warm",
        "product B"
    );
    for r in &rows {
        let speedup = r.cold_ns as f64 / r.incr_ns.max(1) as f64;
        println!(
            "{:<42} {:>5} {:>10} {:>12} {:>12} {speedup:>7.1}x {:>6} {:>8} {:>10}",
            r.name,
            r.iterations,
            r.outcome,
            r.cold_ns,
            r.incr_ns,
            r.incr_recomposes,
            r.warm_states,
            r.product_bytes
        );
    }
    let total_cold: u64 = rows.iter().map(|r| r.cold_ns).sum();
    let total_incr: u64 = rows.iter().map(|r| r.incr_ns).sum();
    let total_speedup = total_cold as f64 / total_incr.max(1) as f64;
    println!(
        "total compose+check: cold {total_cold} ns, incremental {total_incr} ns \
         ({total_speedup:.1}x); all {} cold/incremental pairs verdict-and-trace identical",
        rows.len()
    );
    if total_speedup < 2.0 {
        println!("warning: overall speedup {total_speedup:.1}x is below the 2.0x target");
    }

    if json {
        let workloads: Vec<Json> = rows
            .iter()
            .map(|r| {
                Json::Object(vec![
                    ("name".into(), Json::Str(r.name.clone())),
                    ("iterations".into(), Json::from_usize(r.iterations)),
                    ("outcome".into(), Json::Str(r.outcome.into())),
                    ("cold_compose_check_ns".into(), Json::from_u64(r.cold_ns)),
                    ("incr_compose_check_ns".into(), Json::from_u64(r.incr_ns)),
                    (
                        "speedup".into(),
                        Json::Float(r.cold_ns as f64 / r.incr_ns.max(1) as f64),
                    ),
                    (
                        "incremental_recomposes".into(),
                        Json::from_usize(r.incr_recomposes),
                    ),
                    ("checker_warm_states".into(), Json::from_u64(r.warm_states)),
                    (
                        "peak_product_bytes".into(),
                        Json::from_usize(r.product_bytes),
                    ),
                ])
            })
            .collect();
        let doc = Json::Object(vec![
            ("artefact".into(), Json::Str("incr".into())),
            // Reaching this point means every pair passed the differential
            // oracle — an assertion failure aborts before the file exists.
            ("verdicts_match".into(), Json::Bool(true)),
            ("workloads".into(), Json::Array(workloads)),
            (
                "totals".into(),
                Json::Object(vec![
                    ("cold_compose_check_ns".into(), Json::from_u64(total_cold)),
                    ("incr_compose_check_ns".into(), Json::from_u64(total_incr)),
                    ("speedup".into(), Json::Float(total_speedup)),
                    ("target".into(), Json::Float(2.0)),
                    ("target_met".into(), Json::Bool(total_speedup >= 2.0)),
                ]),
            ),
        ]);
        std::fs::write("BENCH_incr.json", doc.encode() + "\n").expect("write BENCH_incr.json");
        println!("wrote BENCH_incr.json ({total_speedup:.1}x overall)");
    }
}

/// `repro storm [--json]`: the flake-storm campaign — every workload's
/// clean-rig verdict against its verdicts under an `UnreliableRig` at a
/// sweep of injected fault rates. The soundness assertion (conclusive
/// flaky verdict == clean verdict; rate 0.0 fully conclusive) runs
/// *inside* `muml_bench::storm::storm_campaign`; with `--json` the
/// retry/attempt/quarantine distributions land in `BENCH_storm.json`
/// (schema: DESIGN.md §13).
fn run_storm(json: bool) {
    use muml_bench::storm::{storm_campaign, STORM_RATES};

    heading("Storm — verdict soundness under injected rig faults");
    let report = storm_campaign(&STORM_RATES);
    print!("{}", report.render());
    let conclusive: usize = report.rates.iter().map(|r| r.conclusive).sum();
    let inconclusive: usize = report.rates.iter().map(|r| r.inconclusive).sum();
    println!(
        "all {conclusive} conclusive verdicts match the clean rig; \
         {inconclusive} runs honestly inconclusive"
    );
    if json {
        let doc = report.to_json();
        std::fs::write("BENCH_storm.json", doc.encode() + "\n").expect("write BENCH_storm.json");
        println!(
            "wrote BENCH_storm.json ({} rates x {} workloads)",
            report.rates.len(),
            report.rates.first().map(|r| r.jobs).unwrap_or(0)
        );
    }
}

/// `repro chaos [--json]`: the crash-safety campaign — seeded fault
/// injection across the store, journal, socket, and worker axes, each with
/// a hard verdict-equality assertion against the clean run (the asserts
/// run *inside* `muml_bench::chaos::chaos_campaign`; see DESIGN.md §18).
/// With `--json` the per-axis numbers land in `BENCH_chaos.json`.
fn run_chaos(json: bool) {
    use muml_bench::chaos::{chaos_campaign, CHAOS_RATES};

    heading("Chaos — crash safety under injected store/journal/socket/worker faults");
    let report = chaos_campaign(&CHAOS_RATES);
    print!("{}", report.render());
    println!(
        "all verdicts identical to the clean run across {} store rates, \
         {} journal cuts, {} hostile clients, {} worker rates",
        report.store.len(),
        report.journal.cuts,
        report.socket.hostile,
        report.worker.len()
    );
    if json {
        let doc = report.to_json();
        std::fs::write("BENCH_chaos.json", doc.encode() + "\n").expect("write BENCH_chaos.json");
        println!("wrote BENCH_chaos.json ({} axes)", 4);
    }
}

/// `repro warm [--store DIR] [--json]`: run the RailCab variants × faults
/// campaign three times — store-disabled, cold against the store, and
/// seeded from it — and report the rig work the warm start saved. The hard
/// assertions (all three runs verdict-identical; the seeded run drives at
/// most half the cold run's rig steps on a fresh store) run *inside*
/// `muml_bench::warm::warm_campaign`; with `--json` the per-cell numbers
/// land in `BENCH_warm.json` (schema: DESIGN.md §16). Without `--store`
/// the store lives in a fresh temp directory that is removed afterwards;
/// with it, re-invocations exercise the pre-warmed path (the CI
/// cache-poisoning guard).
fn run_warm(json: bool, store: Option<std::path::PathBuf>) {
    use muml_bench::warm::warm_campaign;

    heading("Warm — store-seeded campaign vs cold start");
    let (dir, ephemeral) = match store {
        Some(dir) => (dir, false),
        None => {
            let dir = std::env::temp_dir().join(format!("muml-repro-warm-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            (dir, true)
        }
    };
    std::fs::create_dir_all(&dir).expect("create store directory");
    let report = warm_campaign(&dir);
    print!("{}", report.render());
    println!(
        "verdicts identical across all three runs; store {}",
        if report.store_prewarmed {
            "was pre-warmed (step reduction not comparable)"
        } else {
            "started cold"
        }
    );
    if json {
        let doc = report.to_json();
        std::fs::write("BENCH_warm.json", doc.encode() + "\n").expect("write BENCH_warm.json");
        println!(
            "wrote BENCH_warm.json ({} campaign cells)",
            report.jobs.len()
        );
    }
    if ephemeral {
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `repro probe [--json]`: run the frontier-heavy counter workloads twice —
/// trace cache disabled/serial vs cache enabled/parallel — with a simulated
/// 200 µs-per-step rig. The hard assertions (identical verdicts, identical
/// learned models, the cached run drives at most half the serial run's rig
/// steps) run *inside* `muml_bench::probe::probe_campaign`; with `--json`
/// the per-cell numbers land in `BENCH_probe.json`.
fn run_probe(json: bool) {
    use muml_bench::probe::probe_campaign;

    heading("Probe — trace cache + parallel frontier probes vs serial");
    let report = probe_campaign(std::time::Duration::from_micros(200));
    print!("{}", report.render());
    println!("verdicts and learned models identical across both runs");
    if json {
        let doc = report.to_json();
        std::fs::write("BENCH_probe.json", doc.encode() + "\n").expect("write BENCH_probe.json");
        println!("wrote BENCH_probe.json ({} cells)", report.jobs.len());
    }
}

/// `repro fleet [--jobs N] [--json]`: expand the RailCab variants × faults
/// campaign, run it serially (1 worker) and pooled (N workers), verify that
/// both aggregations fingerprint identically, and report the wall-clock
/// speedup. With `--json`, writes `BENCH_fleet.json` (schema: DESIGN.md
/// §11).
fn run_fleet_cmd(workers: usize, json: bool) {
    use muml_bench::campaign::{railcab_campaign, CampaignOptions};
    use muml_fleet::{run_fleet, FleetConfig, FleetReport};
    use muml_obs::NullFleetSink;

    heading(&format!(
        "Fleet — batch campaign, 1 worker vs {workers} workers"
    ));
    let options = CampaignOptions::default();
    let campaign_size = railcab_campaign(&options).len();
    println!(
        "campaign: {campaign_size} jobs (variants × faults), harness latency {:?}",
        options.latency
    );

    let run_pool = |n: usize| -> (FleetReport, u64) {
        let start = Instant::now();
        let report = run_fleet(
            railcab_campaign(&options),
            &FleetConfig::default().with_workers(n),
            &mut NullFleetSink,
        );
        (report, start.elapsed().as_nanos() as u64)
    };
    let (serial, serial_ns) = run_pool(1);
    let (pooled, pooled_ns) = run_pool(workers);

    assert_eq!(
        serial.fingerprint(),
        pooled.fingerprint(),
        "aggregated campaign reports must not depend on the worker count"
    );
    let speedup = serial_ns as f64 / pooled_ns.max(1) as f64;
    print!("{}", pooled.render());
    println!(
        "serial {serial_ns} ns, {workers} workers {pooled_ns} ns ({speedup:.1}x), fingerprints match"
    );

    if json {
        let run_json = |report: &FleetReport, wall_ns: u64| {
            Json::Object(vec![
                ("workers".into(), Json::from_usize(report.workers)),
                ("wall_ns".into(), Json::from_u64(wall_ns)),
                ("busy_ns".into(), Json::from_u64(report.busy_nanos())),
            ])
        };
        let doc = Json::Object(vec![
            ("artefact".into(), Json::Str("fleet".into())),
            ("jobs".into(), Json::from_usize(campaign_size)),
            (
                "latency_us".into(),
                Json::from_u64(options.latency.as_micros() as u64),
            ),
            (
                "runs".into(),
                Json::Array(vec![
                    run_json(&serial, serial_ns),
                    run_json(&pooled, pooled_ns),
                ]),
            ),
            ("speedup".into(), Json::Float(speedup)),
            ("fingerprints_match".into(), Json::Bool(true)),
            ("report".into(), pooled.to_json()),
        ]);
        std::fs::write("BENCH_fleet.json", doc.encode() + "\n").expect("write BENCH_fleet.json");
        println!(
            "wrote BENCH_fleet.json ({campaign_size} jobs, {speedup:.1}x at {workers} workers)"
        );
    }
}

/// `repro serve [--clients N] [--json]`: start an in-process `muml-serve`
/// daemon on a TCP loopback socket and drive it with N concurrent wire
/// clients, each running its shard of the RailCab campaign closed-loop
/// (submit, then wait). Reports p50/p99 submit→verdict latency, checks
/// the wire verdicts against a direct `run_fleet` of the same requests,
/// then throws a 1000-job burst at a deliberately small admission queue
/// and counts the typed rejections. With `--json`, writes
/// `BENCH_serve.json` (schema: DESIGN.md §14).
fn run_serve_cmd(clients: usize, json: bool) {
    use muml_bench::campaign::{railcab_requests, CampaignOptions};
    use muml_fleet::{run_fleet, FleetConfig};
    use muml_obs::NullFleetSink;
    use muml_serve::{railcab_registry, Daemon, Priority, ServeClient, ServeConfig, Server};

    heading(&format!("Serve — daemon load test, {clients} wire clients"));
    let options = CampaignOptions {
        latency: std::time::Duration::ZERO,
        ..CampaignOptions::default()
    };
    let requests = railcab_requests(&options);
    println!(
        "campaign: {} jobs (variants × faults) over {clients} clients",
        requests.len()
    );

    // Phase A — latency under concurrent load, verdicts checked against a
    // direct in-process fleet run of the same requests.
    let daemon = Daemon::start(
        ServeConfig::default()
            .with_workers(4)
            .with_max_pending(4096),
        railcab_registry(),
    );
    let server = Server::bind(daemon, Some("127.0.0.1:0"), None).expect("bind loopback");
    let addr = server.tcp_addr().expect("tcp addr").to_string();

    let wall_start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|shard| {
            // Shard round-robin so every client sees a mix of cheap and
            // expensive jobs.
            let mine: Vec<_> = requests
                .iter()
                .filter(|r| r.id % clients == shard)
                .cloned()
                .collect();
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect_tcp(&addr).expect("connect");
                let mut verdicts = Vec::new();
                let mut latencies = Vec::new();
                for request in &mine {
                    let start = Instant::now();
                    let job = client
                        .submit(request, Priority::Normal)
                        .expect("campaign submissions are admitted");
                    let record = client.wait(job).expect("verdict");
                    latencies.push(start.elapsed().as_nanos() as u64);
                    verdicts.push(record);
                }
                (verdicts, latencies)
            })
        })
        .collect();
    let mut verdicts = Vec::new();
    let mut latencies = Vec::new();
    for handle in handles {
        let (v, l) = handle.join().expect("client thread");
        verdicts.extend(v);
        latencies.extend(l);
    }
    let wall_ns = wall_start.elapsed().as_nanos() as u64;
    server.stop();

    latencies.sort_unstable();
    let percentile = |p: usize| latencies[(latencies.len() - 1) * p / 100];
    let (p50, p99) = (percentile(50), percentile(99));
    println!(
        "{} verdicts, p50 {:.2} ms, p99 {:.2} ms",
        verdicts.len(),
        p50 as f64 / 1e6,
        p99 as f64 / 1e6
    );

    // Determinism: the daemon must agree with run_fleet on every request.
    let registry = railcab_registry();
    let direct = run_fleet(
        requests
            .iter()
            .map(|r| registry.resolve(r).expect("generated requests resolve"))
            .collect(),
        &FleetConfig::default().with_workers(4),
        &mut NullFleetSink,
    );
    verdicts.sort_by_key(|record| record.request.id);
    assert_eq!(verdicts.len(), direct.results.len());
    for (wire, local) in verdicts.iter().zip(&direct.results) {
        assert_eq!(wire.request.id, local.request.id);
        assert_eq!(
            wire.outcome,
            local.outcome.name(),
            "job {} ({}) disagrees across the wire",
            wire.request.id,
            wire.request.name
        );
    }
    println!(
        "wire verdicts match direct run_fleet on all {} jobs",
        verdicts.len()
    );

    // Phase B — a 1000-job burst over a tiny admission queue: overflow
    // must shed as typed rejections and the daemon must keep serving.
    let daemon = Daemon::start(
        ServeConfig::default()
            .with_workers(2)
            .with_max_pending(64)
            .with_max_pending_per_client(1_000_000),
        railcab_registry(),
    );
    let server = Server::bind(daemon, Some("127.0.0.1:0"), None).expect("bind loopback");
    let addr = server.tcp_addr().expect("tcp addr").to_string();
    let mut client = ServeClient::connect_tcp(&addr).expect("connect");
    let baseline = requests
        .iter()
        .find(|r| r.fault.is_none())
        .expect("campaign has baselines");
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for i in 0..1_000 {
        let request = baseline.clone().with_max_iterations(10_000);
        let request = muml_fleet::JobRequest {
            id: 10_000 + i,
            name: format!("burst-{i}"),
            ..request
        };
        match client.submit(&request, Priority::Low) {
            Ok(id) => accepted.push(id),
            Err(muml_serve::ServeError::QueueFull { .. }) => rejected += 1,
            Err(other) => panic!("burst rejection must be typed queue-full, got {other:?}"),
        }
    }
    for id in &accepted {
        client.wait(*id).expect("accepted burst jobs complete");
    }
    let extra = baseline.clone();
    let extra_id = client
        .submit(&extra, Priority::High)
        .expect("daemon still admits after the burst");
    let extra_record = client.wait(extra_id).expect("daemon still serves");
    println!(
        "burst: 1000 submitted, {} accepted, {rejected} rejected (typed), post-burst job `{}` -> {}",
        accepted.len(),
        extra.name,
        extra_record.outcome
    );
    server.stop();

    if json {
        let doc = Json::Object(vec![
            ("artefact".into(), Json::Str("serve".into())),
            ("clients".into(), Json::from_usize(clients)),
            ("jobs".into(), Json::from_usize(requests.len())),
            ("wall_ns".into(), Json::from_u64(wall_ns)),
            ("p50_ns".into(), Json::from_u64(p50)),
            ("p99_ns".into(), Json::from_u64(p99)),
            ("verdicts_match_fleet".into(), Json::Bool(true)),
            (
                "burst".into(),
                Json::Object(vec![
                    ("submitted".into(), Json::from_usize(1_000)),
                    ("accepted".into(), Json::from_usize(accepted.len())),
                    ("rejected".into(), Json::from_usize(rejected)),
                    ("served_after".into(), Json::Bool(true)),
                ]),
            ),
        ]);
        std::fs::write("BENCH_serve.json", doc.encode() + "\n").expect("write BENCH_serve.json");
        println!(
            "wrote BENCH_serve.json ({clients} clients, p50 {:.2} ms, {rejected} burst rejections)",
            p50 as f64 / 1e6
        );
    }
}

fn run(what: &str) {
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
        "table_a" => {
            heading("Table T-A — ours vs L*+check vs black-box checking, growing component");
            let t = table_a(&[4, 6, 8, 10]);
            print!(
                "{}",
                render_rows("counter protocol, k = n/2 pushes", "n", &t)
            );
        }
        "table_b" => {
            heading("Table T-B — context restrictiveness sweep (n = 10)");
            let t = table_b(10, &[1, 2, 4, 6, 8]);
            println!(
                "{:>6} {:>14} {:>14} {:>12} {:>12}",
                "k", "ours states", "lstar states", "ours steps", "lstar steps"
            );
            for (k, ours, lstar) in t {
                println!(
                    "{k:>6} {:>14} {:>14} {:>12} {:>12}",
                    ours.learned_states, lstar.learned_states, ours.steps, lstar.steps
                );
            }
        }
        "table_c" => {
            heading("Table T-C — fault detection at seeded depth (n = 8, k = 6)");
            let t = table_c(8, &[1, 2, 3, 4, 5]);
            print!("{}", render_rows("all outcomes must be `fault`", "d", &t));
        }
        "table_d" => {
            heading("Table T-D — kernel scalability (closure, composition, checking)");
            println!(
                "{:>6} {:>14} {:>14} {:>14} {:>10}",
                "n", "closure states", "composed", "checker iters", "time ms"
            );
            for n in [8usize, 16, 32, 64] {
                let w = counter_workload(n, n / 2);
                let start = Instant::now();
                let (closure_states, comp) = late_iteration_composition(&w);
                let mut checker = Checker::with_csr(&comp.automaton, &comp.csr);
                let _ = checker.satisfies(&Formula::deadlock_free());
                println!(
                    "{n:>6} {:>14} {:>14} {:>14} {:>10}",
                    closure_states,
                    comp.automaton.state_count(),
                    checker.stats.fixpoint_iterations,
                    start.elapsed().as_millis()
                );
            }
        }
        "check" => run_check(false),
        "fleet" => run_fleet_cmd(4, false),
        "incr" => run_incr(false),
        "storm" => run_storm(false),
        "serve" => run_serve_cmd(8, false),
        "warm" => run_warm(false, None),
        "probe" => run_probe(false),
        "chaos" => run_chaos(false),
        "table_e" => {
            heading("Table T-E — multi-legacy parallel learning (n = 4, k = 2)");
            let (single, twin) = table_e(4, 2);
            println!(
                "single: outcome {}, {} resets, {} steps, {} learned states, {} iterations",
                single.outcome, single.resets, single.steps, single.learned_states, single.rounds
            );
            println!(
                "twin:   outcome {}, {} resets, {} steps, {} learned states, {} iterations",
                twin.outcome, twin.resets, twin.steps, twin.learned_states, twin.rounds
            );
        }
        "table_f" => {
            heading("Table T-F — ablation: batched counterexamples (§7 improvement)");
            println!(
                "{:>6} {:>12} {:>8} {:>8}",
                "batch", "iterations", "resets", "steps"
            );
            for batch in [1usize, 4, 16] {
                let w = counter_workload(8, 5);
                let mut c = w.component.clone();
                let report = {
                    let mut units = [muml_core::LegacyUnit::new(
                        &mut c,
                        muml_legacy::PortMap::with_default("p"),
                    )];
                    muml_core::verify_integration(
                        &w.universe,
                        &w.context,
                        &[],
                        &mut units,
                        &muml_core::IntegrationConfig::default().with_batch_counterexamples(batch),
                    )
                    .expect("terminates")
                };
                assert!(report.verdict.proven());
                println!(
                    "{batch:>6} {:>12} {:>8} {:>8}",
                    report.stats.iterations,
                    c.resets(),
                    c.total_steps()
                );
            }
        }
        _ => unreachable!("validated in main"),
    }
}
