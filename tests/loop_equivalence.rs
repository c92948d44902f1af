//! Loop-equivalence golden: the verify → test → learn loop must produce the
//! same observable run on a fixed grid of cells — counters against the
//! plain driver and against the driver composed with a 3×5 ticker grid,
//! with and without seeded faults, plus every RailCab variant × fault cell.
//!
//! Each cell is reduced to a digest line (verdict, iteration records with
//! their counterexample listings, test counts and steps, peak product
//! size, composition work counters, learned sizes, probe rows) and the
//! FNV-1a hash of all lines is pinned. Any change to how products are
//! built, numbered or checked that leaks into the loop moves the hash.
//! The rig steps each cell drives are pinned by a second hash of their
//! own, so a change to how the trace cache drives the rig re-pins that
//! one only, and the first shows that nothing the loop concludes moved.
//! The loop has one path (spliced product, trace cache); the first hash
//! was pinned while a cold-rebuild, uncached loop still existed and gave
//! the same digest cell by cell.

use muml_bench::workload::{counter_workload, seed_fault, ticker_counter_workload};
use muml_integration::core::{
    verify_integration, IntegrationConfig, IntegrationReport, IntegrationVerdict, LegacyUnit,
};
use muml_integration::legacy::{fault_matrix, inject, Fault, PortMap};
use muml_integration::obs::fnv1a64;
use muml_integration::railcab::{front_context, scenario, shuttle_variants, ShuttleVariant};

/// The FNV-1a hash of every cell's digest, in grid order, rig steps
/// excluded. It pins the same runs as the earlier whole-cell digest, which
/// was taken while the incremental product was still renumbered into
/// cold-compose order, so it also pins that state numbering does not reach
/// the loop.
const PINNED_DIGEST: u64 = 0x0eaf_bfc7_e731_6d76;

/// The FNV-1a hash of every cell's driven rig steps, in grid order.
const PINNED_DRIVEN_DIGEST: u64 = 0x20b7_d27c_d106_8134;

/// One cell's observable run: what the loop concludes, the composition
/// work counters and the rig steps driven.
struct CellDigest {
    tag: String,
    observable: String,
    compose_work: String,
    driven: usize,
}

fn digest(tag: String, report: &IntegrationReport) -> CellDigest {
    let verdict = match &report.verdict {
        IntegrationVerdict::Proven => "proven".to_owned(),
        IntegrationVerdict::RealFault {
            property,
            trace,
            rendered,
        } => format!("fault {property} len={} {rendered}", trace.len()),
        IntegrationVerdict::Inconclusive {
            quarantined,
            attempts,
        } => format!("inconclusive {quarantined}/{attempts}"),
    };
    let mut observable = format!("{verdict}\n");
    for r in &report.iterations {
        observable.push_str(&format!(
            "  #{} knowledge={:?} composed={} violated={:?} outcome={:?}\n  {}\n",
            r.index,
            r.knowledge,
            r.composed_states,
            r.violated,
            r.outcome,
            r.counterexample.as_deref().unwrap_or("-"),
        ));
    }
    let s = &report.stats;
    observable.push_str(&format!(
        "  iterations={} tests={} test_steps={} peak={} learned={:?} probe_rows={}",
        s.iterations,
        s.tests_executed,
        s.test_steps,
        s.peak_composed_states,
        report.learned_sizes(),
        s.probe_rows_expanded,
    ));
    CellDigest {
        tag,
        observable,
        compose_work: format!(
            "expanded_labels={} family_guards={}",
            s.expanded_labels, s.family_guards
        ),
        driven: s.driven_steps,
    }
}

fn counter_cell(n: usize, k: usize, fault: Option<usize>, ticker: bool) -> IntegrationReport {
    let mut w = if ticker {
        ticker_counter_workload(n, k)
    } else {
        counter_workload(n, k)
    };
    if let Some(d) = fault {
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
        &IntegrationConfig::default(),
    )
    .expect("counter loop terminates")
}

fn railcab_cell(variant: ShuttleVariant, fault: Option<&Fault>) -> IntegrationReport {
    let u = muml_integration::automata::Universe::new();
    let context = front_context(&u);
    let mut shuttle = (variant.build)(&u);
    if let Some(f) = fault {
        inject(&mut shuttle, &u, f).expect("fault targets an existing rule");
    }
    let props = vec![scenario::pattern_constraint(&u)];
    let mut units = [LegacyUnit::new(&mut shuttle, scenario::rear_port_map(&u))];
    verify_integration(
        &u,
        &context,
        &props,
        &mut units,
        &IntegrationConfig::default(),
    )
    .expect("railcab loop terminates")
}

fn grid() -> Vec<CellDigest> {
    let mut cells = Vec::new();
    // Plain driver: every push count and fault depth of small counters.
    for n in 4..=12usize {
        for k in 1..=n - 2 {
            for fault in std::iter::once(None).chain((1..n - 1).map(Some)) {
                let tag = format!("counter n={n} k={k} fault={fault:?}");
                cells.push(digest(tag, &counter_cell(n, k, fault, false)));
            }
        }
    }
    // Driver ∥ ticker grid: the compose-bound shape (`n=10, k=8` is the
    // served benchmark's warm cell), with half and full push counts and
    // faults at the start, in the middle, at the end, and none.
    for n in [6usize, 8, 10] {
        for k in [n / 2, n - 2] {
            for fault in [None, Some(1), Some(n / 2), Some(n - 2)] {
                let tag = format!("ticker n={n} k={k} fault={fault:?}");
                cells.push(digest(tag, &counter_cell(n, k, fault, true)));
            }
        }
    }
    // RailCab: every shuttle variant, unmodified and under each fault of
    // its deterministic fault matrix.
    let u = muml_integration::automata::Universe::new();
    for &variant in shuttle_variants() {
        let faults = fault_matrix(&(variant.build)(&u), &u);
        cells.push(digest(
            format!("railcab {}", variant.name),
            &railcab_cell(variant, None),
        ));
        for fault in &faults {
            cells.push(digest(
                format!("railcab {}/{}", variant.name, fault.describe()),
                &railcab_cell(variant, Some(fault)),
            ));
        }
    }
    cells
}

#[test]
fn loop_runs_match_the_pinned_digests() {
    let cells = grid();
    let mut text = String::new();
    let mut driven = String::new();
    let mut families = [("counter", 0usize), ("ticker", 0), ("railcab", 0)];
    for c in &cells {
        text.push_str(&c.tag);
        text.push('\n');
        text.push_str(&c.observable);
        text.push('\n');
        text.push_str(&c.compose_work);
        text.push('\n');
        driven.push_str(&format!("{} driven={}\n", c.tag, c.driven));
        for (family, total) in &mut families {
            if c.tag.starts_with(*family) {
                *total += c.driven;
            }
        }
    }
    let hash = fnv1a64(text.as_bytes());
    assert_eq!(
        hash,
        PINNED_DIGEST,
        "loop digest over {} cells moved: {hash:#018x}",
        cells.len()
    );
    let driven_hash = fnv1a64(driven.as_bytes());
    assert_eq!(
        driven_hash,
        PINNED_DRIVEN_DIGEST,
        "driven-step digest over {} cells moved: {driven_hash:#018x} (totals {families:?})",
        cells.len()
    );
}
