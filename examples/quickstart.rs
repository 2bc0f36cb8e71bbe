//! Quickstart: the paper's running example end to end.
//!
//! Builds the bank database of Figure 1, the CINDs ψ1–ψ6 of Figure 2 and
//! the CFDs ϕ1–ϕ3 of Figure 4, and shows that conditional dependencies
//! catch the seeded error (`t12`, the 10.5% UK checking rate) that
//! traditional FDs/INDs miss.
//!
//! Run with `cargo run --example quickstart`.

use condep::cfd::fixtures as cfd_fixtures;
use condep::cind::fixtures as cind_fixtures;
use condep::cind::{normalize, satisfy};
use condep::model::fixtures::{bank_database, bank_schema, clean_bank_database};
use condep::report::{QualitySuite, Violation};

fn main() {
    let schema = bank_schema();
    let db = bank_database();
    println!("=== Schema (Figure 1) ===\n{schema}");
    println!(
        "=== The dirty instance has {} tuples ===\n",
        db.total_tuples()
    );

    // Traditional dependencies are blind to the error.
    println!("--- Traditional FDs/INDs (fd1-fd3, ind3-ind4) ---");
    for (name, cfd) in [
        ("fd1", cfd_fixtures::fd1()),
        ("fd2", cfd_fixtures::fd2()),
        ("fd3", cfd_fixtures::fd3()),
    ] {
        println!(
            "  {name}: satisfied = {}",
            condep::cfd::satisfy::satisfies(&db, &cfd)
        );
    }
    for (name, cind) in [
        ("ind3 (ψ3)", cind_fixtures::psi3()),
        ("ind4 (ψ4)", cind_fixtures::psi4()),
    ] {
        println!("  {name}: satisfied = {}", satisfy::satisfies(&db, &cind));
    }
    println!("  → every traditional dependency holds; the data still has an error!\n");

    // Conditional dependencies catch it.
    println!("--- Conditional dependencies (Figures 2 and 4) ---");
    for (name, cind) in [("ψ5", cind_fixtures::psi5()), ("ψ6", cind_fixtures::psi6())] {
        println!("  {name}: satisfied = {}", satisfy::satisfies(&db, &cind));
    }
    let phi3 = cfd_fixtures::phi3();
    println!(
        "  ϕ3: satisfied = {}\n",
        condep::cfd::satisfy::satisfies(&db, &phi3)
    );

    // The aggregated report: one batched sweep over all of Σ.
    let suite = QualitySuite::new(
        schema.clone(),
        &[
            cfd_fixtures::phi1(),
            cfd_fixtures::phi2(),
            cfd_fixtures::phi3(),
        ],
        &cind_fixtures::figure_2(),
    );
    let report = suite.check(&db);

    // Pinpoint the dirty tuples in the report.
    let psi6_edi = &normalize::normalize(&cind_fixtures::psi6())[0];
    println!("--- ψ6 violations (the EDI row of T6) ---");
    for v in &report.violations {
        if let Violation::Cind {
            constraint,
            violation,
            rel,
        } = v
        {
            if &suite.cinds()[*constraint] == psi6_edi {
                let t = db
                    .relation(*rel)
                    .get(violation.tuple)
                    .expect("valid position");
                println!("  violating tuple (t10): {t}");
            }
        }
    }

    println!("\n--- Quality report: dirty instance ---");
    print!("{report}");
    println!("--- Quality report: corrected instance (t12 → 1.5%) ---");
    print!("{}", suite.check(&clean_bank_database()));
}
