//! Criterion micro-benchmarks for the core operations: satisfaction
//! checking, violation detection, normalization, chasing and SAT
//! solving — the building blocks every figure rests on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use condep_cfd::fixtures as cfd_fx;
use condep_chase::ops::seed_tuple;
use condep_chase::{chase, ChaseConfig, TemplateDb};
use condep_core::fixtures as cind_fx;
use condep_core::normalize::{normalize, normalize_all};
use condep_gen::{
    dirty_database, generate_sigma, random_schema, DirtyDataConfig, SchemaGenConfig, SigmaGenConfig,
};
use condep_model::fixtures::bank_database;
use condep_sat::{Cnf, Solver, Var};
use condep_validate::Validator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_satisfaction(c: &mut Criterion) {
    let db = bank_database();
    let psi6 = normalize(&cind_fx::psi6());
    c.bench_function("cind_satisfies_normal_bank", |b| {
        b.iter(|| {
            black_box(condep_core::satisfy::satisfies_normal(
                black_box(&db),
                black_box(&psi6[0]),
            ))
        })
    });
    let phi3 = condep_cfd::normalize::normalize(&cfd_fx::phi3());
    c.bench_function("cfd_satisfies_normal_bank", |b| {
        b.iter(|| {
            black_box(condep_cfd::satisfy::satisfies_normal(
                black_box(&db),
                black_box(&phi3[2]),
            ))
        })
    });
}

fn bench_violation_detection_at_scale(c: &mut Criterion) {
    let schema = random_schema(
        &SchemaGenConfig {
            relations: 5,
            attrs_min: 5,
            attrs_max: 8,
            finite_ratio: 0.2,
            finite_dom_min: 2,
            finite_dom_max: 10,
        },
        &mut StdRng::seed_from_u64(1),
    );
    let (cfds, cinds, witness) = generate_sigma(
        &schema,
        &SigmaGenConfig {
            cardinality: 30,
            consistent: true,
            ..SigmaGenConfig::default()
        },
        &mut StdRng::seed_from_u64(2),
    );
    let dirty = dirty_database(
        &schema,
        &cfds,
        &cinds,
        &witness.unwrap(),
        &DirtyDataConfig {
            tuples_per_relation: 1_000,
            violations_per_relation: 10,
        },
        &mut StdRng::seed_from_u64(3),
    );
    let validator = Validator::new(vec![], cinds);
    c.bench_function("cind_validate_1k_tuples", |b| {
        b.iter(|| black_box(validator.validate(black_box(&dirty.db)).len()))
    });
}

fn bench_normalization(c: &mut Criterion) {
    let sigma = cind_fx::figure_2();
    c.bench_function("normalize_figure_2", |b| {
        b.iter(|| black_box(normalize_all(black_box(&sigma))))
    });
}

fn bench_chase(c: &mut Criterion) {
    let schema = cind_fx::example_5_1_schema(true);
    let cinds = cind_fx::example_5_1_cinds(&schema);
    let cfds = vec![condep_cfd::NormalCfd::parse(
        &schema,
        "r2",
        &["h"],
        condep_model::prow![_],
        "g",
        condep_model::PValue::constant("c"),
    )
    .unwrap()];
    c.bench_function("chase_example_5_1", |b| {
        b.iter_batched(
            || {
                let mut db = TemplateDb::empty(schema.clone());
                seed_tuple(&mut db, schema.rel_id("r1").unwrap());
                (db, StdRng::seed_from_u64(7))
            },
            |(db, mut rng)| black_box(chase(db, &cfds, &cinds, &ChaseConfig::default(), &mut rng)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_sat(c: &mut Criterion) {
    // Pigeonhole 7→6: a solid UNSAT workout.
    let mut cnf = Cnf::new();
    let p: Vec<Vec<condep_sat::Lit>> = (0..7)
        .map(|_| cnf.fresh_vars(6).into_iter().map(Var::pos).collect())
        .collect();
    for row in &p {
        cnf.add_at_least_one(row);
    }
    #[allow(clippy::needless_range_loop)]
    for j in 0..6 {
        for i1 in 0..7 {
            for i2 in (i1 + 1)..7 {
                cnf.add_clause([!p[i1][j], !p[i2][j]]);
            }
        }
    }
    c.bench_function("sat_pigeonhole_7_6", |b| {
        b.iter(|| black_box(Solver::new(black_box(&cnf)).solve()))
    });
}

criterion_group!(
    benches,
    bench_satisfaction,
    bench_violation_detection_at_scale,
    bench_normalization,
    bench_chase,
    bench_sat
);
criterion_main!(benches);
