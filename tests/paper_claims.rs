//! Every checkable claim the paper makes about its running examples,
//! asserted end-to-end across the workspace crates.

use condep::cfd::fixtures as cfd_fx;
use condep::cfd::{normalize as cfd_normalize, satisfy as cfd_satisfy};
use condep::cind::fixtures as cind_fx;
use condep::cind::implication::{implies, Implication, ImplicationConfig};
use condep::cind::inference::Proof;
use condep::cind::normalize::{normalize, normalize_all};
use condep::cind::satisfy as cind_satisfy;
use condep::cind::witness::build_witness;
use condep::consistency::graph::DepGraph;
use condep::consistency::{
    checking, pre_processing, ChaseCfdChecker, CheckingConfig, ConstraintSet, RandomCheckingConfig,
};
use condep::model::fixtures::{bank_database, bank_schema, clean_bank_database};
use condep::model::{prow, tuple, PValue};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Example 2.2: "The database in Fig. 1 satisfies [ψ1–ψ5] … On the other
/// hand, ψ6 is violated by the database."
#[test]
fn example_2_2_satisfaction() {
    let db = bank_database();
    for psi in [
        cind_fx::psi1_edi(),
        cind_fx::psi1_nyc(),
        cind_fx::psi2_edi(),
        cind_fx::psi2_nyc(),
        cind_fx::psi3(),
        cind_fx::psi4(),
        cind_fx::psi5(),
    ] {
        assert!(cind_satisfy::satisfies(&db, &psi));
    }
    assert!(!cind_satisfy::satisfies(&db, &cind_fx::psi6()));
}

/// Example 2.2: "although these CINDs are satisfied, their embedded INDs
/// do not necessarily hold" — the embedded IND of ψ1 fails on EDI.
#[test]
fn example_2_2_embedded_ind_fails() {
    let db = bank_database();
    let schema = bank_schema();
    let embedded = condep::cind::Cind::parse(
        &schema,
        "account_edi",
        &["an", "cn", "ca", "cp"],
        &[],
        "saving",
        &["an", "cn", "ca", "cp"],
        &[],
        vec![condep::model::PatternRow::all_any(8)],
    )
    .unwrap();
    assert!(!cind_satisfy::satisfies(&db, &embedded));
}

/// Example 2.2 / Section 2: the violating tuple is exactly t10.
#[test]
fn example_2_2_t10_is_the_witness() {
    let db = bank_database();
    let psi6 = normalize(&cind_fx::psi6());
    let violations = condep::cind::find_violations(&db, &psi6[0]);
    assert_eq!(violations.len(), 1);
    let checking_rel = db.schema().rel_id("checking").unwrap();
    assert_eq!(
        db.relation(checking_rel).get(violations[0].tuple),
        Some(&tuple![
            "02",
            "I. Stark",
            "EDI, EH1 4FE",
            "131-6693423",
            "EDI"
        ])
    );
}

/// Proposition 3.1: normalization preserves satisfaction on both the
/// dirty and the clean instance, and stays linear in size.
#[test]
fn proposition_3_1_on_figure_2() {
    use condep::cind::normalize::{size_of_general, size_of_normal};
    let sigma = cind_fx::figure_2();
    for db in [bank_database(), clean_bank_database()] {
        for psi in &sigma {
            let direct = cind_satisfy::satisfies_general_direct(&db, psi);
            let via_normal = normalize(psi)
                .iter()
                .all(|n| cind_satisfy::satisfies_normal(&db, n));
            assert_eq!(direct, via_normal);
        }
    }
    let normal = normalize_all(&sigma);
    assert!(size_of_normal(&normal) <= 2 * size_of_general(&sigma));
}

/// Theorem 3.2: a witness exists for the Figure 2 CINDs — and for the
/// Example 5.4 set.
#[test]
fn theorem_3_2_witness_construction() {
    let schema = bank_schema();
    let sigma = normalize_all(&cind_fx::figure_2());
    let db = build_witness(&schema, &sigma).expect("always consistent");
    assert!(!db.is_empty());
    assert!(cind_satisfy::satisfies_all(&db, &sigma));
}

/// Example 3.3 + Theorem 3.4 machinery: Σ |= ψ for the account/interest
/// goal, decided by the implication game.
#[test]
fn example_3_3_implication() {
    let schema = bank_schema();
    let sigma = normalize_all(&[
        cind_fx::psi1_edi(),
        cind_fx::psi2_edi(),
        cind_fx::psi5(),
        cind_fx::psi6(),
    ]);
    let goal = normalize(&cind_fx::example_3_3_goal()).remove(0);
    assert_eq!(
        implies(&schema, &sigma, &goal, ImplicationConfig::default()),
        Implication::Implied
    );
}

/// Example 3.4: the seven-step proof in the inference system I derives ψ
/// and is sound.
#[test]
fn example_3_4_derivation() {
    let schema = bank_schema();
    let mut p = Proof::new();
    let a1 = p.axiom(normalize(&cind_fx::psi1_edi()).remove(0));
    let a2 = p.axiom(normalize(&cind_fx::psi2_edi()).remove(0));
    let a5 = p.axiom(normalize(&cind_fx::psi5()).remove(0));
    let a6 = p.axiom(normalize(&cind_fx::psi6()).remove(0));
    let s1 = p.cind2(a1, &[]).unwrap();
    let s2 = p.cind2(a2, &[]).unwrap();
    let s3 = p.cind6(a5, &[1]).unwrap();
    let s4 = p.cind6(a6, &[1]).unwrap();
    let s5 = p.cind3(s1, s3).unwrap();
    let s6 = p.cind3(s2, s4).unwrap();
    let account = schema.rel_id("account_edi").unwrap();
    let interest = schema.rel_id("interest").unwrap();
    let at_l = schema.relation(account).unwrap().attr_id("at").unwrap();
    let at_r = schema.relation(interest).unwrap().attr_id("at").unwrap();
    p.cind8(&schema, &[s5, s6], at_l, at_r).unwrap();
    assert_eq!(
        p.conclusion(),
        Some(&normalize(&cind_fx::example_3_3_goal()).remove(0))
    );
    assert_eq!(p.check_soundness(&clean_bank_database()), None);
}

/// Example 4.1: Fig 1 satisfies fd1–fd3, ϕ1, ϕ2 but not ϕ3; a single
/// tuple (t12) violates a CFD.
#[test]
fn example_4_1_cfd_satisfaction() {
    let db = bank_database();
    for cfd in [
        cfd_fx::fd1(),
        cfd_fx::fd2(),
        cfd_fx::fd3(),
        cfd_fx::phi1(),
        cfd_fx::phi2(),
    ] {
        assert!(cfd_satisfy::satisfies(&db, &cfd));
    }
    assert!(!cfd_satisfy::satisfies(&db, &cfd_fx::phi3()));
    // The violation is a single-tuple one.
    let normal = cfd_normalize::normalize(&cfd_fx::phi3());
    let mut singles = 0;
    for n in &normal {
        for v in condep::cfd::find_violations(&db, n) {
            assert!(matches!(v, condep::cfd::CfdViolation::SingleTuple { .. }));
            singles += 1;
        }
    }
    assert_eq!(singles, 1);
}

/// Example 3.2: the four CFDs over dom(A) = bool are inconsistent, yet
/// any three of them are consistent.
#[test]
fn example_3_2_inconsistency() {
    use condep::cfd::consistency::{relation_consistency, RelationVerdict};
    let (schema, cfds) = cfd_fx::example_3_2();
    let rel = schema.rel_id("r").unwrap();
    let consistent = |subset: &[_]| {
        let active: Vec<_> = subset.iter().enumerate().collect();
        match relation_consistency(&schema, rel, &active, None) {
            RelationVerdict::Sat(_) => true,
            RelationVerdict::Unsat(_) => false,
            RelationVerdict::Unknown => panic!("no conflict budget was set"),
        }
    };
    assert!(!consistent(&cfds));
    for skip in 0..cfds.len() {
        let mut subset = cfds.clone();
        subset.remove(skip);
        assert!(consistent(&subset));
    }
}

/// Example 4.2: φ and ψ are separately consistent but jointly not; the
/// heuristic Checking rejects the pair.
#[test]
fn example_4_2_joint_inconsistency() {
    let (schema, cind) = cind_fx::example_4_2_cind();
    let phi =
        condep::cfd::NormalCfd::parse(&schema, "r", &["a"], prow![_], "b", PValue::constant("a"))
            .unwrap();
    // Separately consistent.
    let only_cfd = ConstraintSet::new(schema.clone(), vec![phi.clone()], vec![]);
    assert!(checking(&only_cfd, &CheckingConfig::default()).is_some());
    let only_cind = ConstraintSet::new(schema.clone(), vec![], vec![cind.clone()]);
    assert!(checking(&only_cind, &CheckingConfig::default()).is_some());
    // Jointly inconsistent.
    let joint = ConstraintSet::new(schema, vec![phi], vec![cind]);
    assert!(checking(&joint, &CheckingConfig::default()).is_none());
}

/// Examples 5.4/5.5: preProcessing returns 1 with ψ4 and −1 (reduced to
/// Figure 8) with ψ4'; Example 5.6: Checking then succeeds via
/// RandomChecking.
#[test]
fn examples_5_4_to_5_6_pipeline() {
    let schema = cind_fx::example_5_4_schema();
    let cfds = vec![
        condep::cfd::NormalCfd::parse(&schema, "r1", &["e"], prow![_], "f", PValue::Any).unwrap(),
        condep::cfd::NormalCfd::parse(&schema, "r2", &["h"], prow![_], "g", PValue::constant("c"))
            .unwrap(),
        condep::cfd::NormalCfd::parse(&schema, "r3", &["a"], prow!["c"], "b", PValue::Any).unwrap(),
        condep::cfd::NormalCfd::parse(&schema, "r4", &["c"], prow![_], "d", PValue::constant("a"))
            .unwrap(),
        condep::cfd::NormalCfd::parse(&schema, "r4", &["c"], prow![_], "d", PValue::constant("b"))
            .unwrap(),
        condep::cfd::NormalCfd::parse(&schema, "r5", &["i"], prow![_], "j", PValue::constant("c"))
            .unwrap(),
    ];
    // First variant (ψ4): preProcessing answers 1.
    let sigma = ConstraintSet::new(
        schema.clone(),
        cfds.clone(),
        cind_fx::example_5_4_cinds(&schema),
    );
    let mut graph = DepGraph::build(&sigma);
    let mut checker = ChaseCfdChecker::new(1000, StdRng::seed_from_u64(0));
    assert_eq!(pre_processing(&mut graph, &sigma, &mut checker).code(), 1);

    // Second variant (ψ4'): −1 with the Figure 8 remnant, then Checking
    // succeeds.
    let mut cinds = cind_fx::example_5_4_cinds(&schema);
    cinds[3] = cind_fx::example_5_5_psi4_prime(&schema);
    let sigma = ConstraintSet::new(schema.clone(), cfds, cinds);
    let mut graph = DepGraph::build(&sigma);
    let mut checker = ChaseCfdChecker::new(1000, StdRng::seed_from_u64(0));
    assert_eq!(pre_processing(&mut graph, &sigma, &mut checker).code(), -1);
    assert_eq!(graph.live_count(), 2);
    let witness = checking(
        &sigma,
        &CheckingConfig {
            random: RandomCheckingConfig {
                k: 20,
                seed: 5,
                ..RandomCheckingConfig::default()
            },
            ..CheckingConfig::default()
        },
    )
    .expect("Example 5.6 finds a witness");
    assert!(sigma.satisfied_by(&witness));
}

/// Section 1 (Example 1.2 narrative): the clean instance satisfies all
/// of Figures 2 and 4 simultaneously.
#[test]
fn clean_instance_satisfies_everything() {
    let db = clean_bank_database();
    for psi in cind_fx::figure_2() {
        assert!(cind_satisfy::satisfies(&db, &psi));
    }
    for phi in [cfd_fx::phi1(), cfd_fx::phi2(), cfd_fx::phi3()] {
        assert!(cfd_satisfy::satisfies(&db, &phi));
    }
}
