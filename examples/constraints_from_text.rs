//! Dependencies from a configuration file: the `condep-dsl` front end.
//!
//! Defines the bank's target schema and conditional dependencies in the
//! textual format, parses them, and validates the Figure 1 instance
//! against them — the workflow of a deployed data-quality tool.
//!
//! Run with `cargo run --example constraints_from_text`.

use condep::cind::normalize::normalize;
use condep::dsl::{parse_document, print_document};
use condep::model::{tuple, Database};
use condep::validate::Validator;

const CONSTRAINTS: &str = r#"
// Target schema of Example 1.1.
relation checking(an: string, cn: string, ca: string,
                  cp: string, ab: string);
relation interest(ab: string, ct: string,
                  at: {checking, saving}, rt: string);

// ϕ3 (interest rows): country + type determine the rate.
cfd phi3: interest(ct, at -> rt) {
    (_, _ || _);
    (UK, checking || "1.5%");
    (US, checking || "1%");
}

// ψ6: every checking account's branch must appear in interest with the
// right country and rate.
cind psi6: checking[; ab] subset interest[; ab, at, ct, rt] {
    (EDI || EDI, checking, UK, "1.5%");
    (NYC || NYC, checking, US, "1%");
}
"#;

fn main() {
    let doc = parse_document(CONSTRAINTS).expect("constraint file parses");
    println!(
        "parsed {} relations, {} CFDs, {} CINDs\n",
        doc.schema.len(),
        doc.cfds.len(),
        doc.cinds.len()
    );
    println!("--- canonical form ---\n{}", print_document(&doc));

    // Populate the checking/interest fragment of Figure 1 (t8–t14).
    let mut db = Database::empty(doc.schema.clone());
    for t in [
        tuple!["02", "G. King", "NYC, 19022", "212-3963455", "NYC"],
        tuple!["03", "J. Lee", "NYC, 02284", "212-5679844", "NYC"],
        tuple!["02", "I. Stark", "EDI, EH1 4FE", "131-6693423", "EDI"],
    ] {
        db.insert_into("checking", t).expect("well-typed");
    }
    for t in [
        tuple!["EDI", "UK", "saving", "4.5%"],
        tuple!["EDI", "UK", "checking", "10.5%"], // the seeded error t12
        tuple!["NYC", "US", "saving", "4%"],
        tuple!["NYC", "US", "checking", "1%"],
    ] {
        db.insert_into("interest", t).expect("well-typed");
    }

    // Detect with the parsed constraints: one batched sweep.
    let phi3 = doc.cfd("phi3").expect("named dependency");
    let psi6 = doc.cind("psi6").expect("named dependency");
    let validator = Validator::new(condep::cfd::normalize::normalize(phi3), normalize(psi6));
    let report = validator.validate_sorted(&db);
    let mut total = 0;
    for (i, v) in &report.cind {
        let rel = validator.cinds()[*i].lhs_rel();
        let t = db.relation(rel).get(v.tuple).expect("valid position");
        println!("ψ6 violation: {t}");
        total += 1;
    }
    for (i, v) in &report.cfd {
        if let condep::cfd::CfdViolation::SingleTuple {
            tuple,
            found,
            expected,
        } = v
        {
            let rel = validator.cfds()[*i].rel();
            let t = db.relation(rel).get(*tuple).expect("valid position");
            println!("ϕ3 violation: {t} (found {found}, expected {expected})");
            total += 1;
        }
    }
    assert_eq!(total, 2, "t10 via ψ6 and t12 via ϕ3");
    println!("\n2 violations found — exactly the paper's t10 and t12.");
}
