//! Input generation. Everything here runs outside the timed regions:
//! the engine only ever receives the generated rows and dependencies.

use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_gen::PoisonedClass;
use condep_model::{tuple, Database, Domain, PValue, PatternRow, RelId, Schema, Tuple};
use condep_validate::Mutation;
use std::sync::Arc;

/// Generated rows, grouped per relation, ready to be loaded.
#[derive(Clone, Debug)]
pub struct Rows {
    pub schema: Arc<Schema>,
    pub relations: Vec<(RelId, Vec<Tuple>)>,
}

impl Rows {
    /// Copies every relation of `db` out as plain rows.
    pub fn of(db: &Database) -> Self {
        Rows {
            schema: db.schema().clone(),
            relations: db
                .iter()
                .map(|(rel, r)| (rel, r.iter().cloned().collect()))
                .collect(),
        }
    }

    /// Loads the rows into a fresh `Database` — the engine's input
    /// form, and the first step of every workload's set-up.
    pub fn load(self) -> Database {
        let mut db = Database::empty(self.schema);
        for (rel, tuples) in self.relations {
            db.insert_all(rel, tuples)
                .expect("generated rows are well-typed");
        }
        db
    }
}

/// A 64-bit mixer turning a seed into a non-zero generator state.
pub fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | 1
}

pub fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The stream/batch bench shape: an 8-attribute `r` plus a 64-row
/// `partner`.
pub fn churn_schema() -> Arc<Schema> {
    let attrs = ["a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"].map(|a| (a, Domain::string()));
    Arc::new(
        Schema::builder()
            .relation("r", &attrs)
            .relation("partner", &[("p", Domain::string())])
            .finish(),
    )
}

/// `r` tuple number `i`, honoring the embedded FDs (`a1 → a2`,
/// `a3 → a4`, `a5 → a6`), with every 1024th `a2` corrupted. A pure
/// function of `(seed, i)`: a tuple deleted and inserted again later is
/// the same tuple.
pub fn churn_tuple(seed: u64, i: usize) -> Tuple {
    let state = &mut splitmix(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let h1 = xorshift(state) % 64;
    let h2 = xorshift(state) % 512;
    let h3 = xorshift(state) % 4096;
    let w = xorshift(state) % 8;
    let a2 = if i % 1024 == 1023 {
        "CORRUPT".to_string()
    } else {
        format!("c{h1}")
    };
    tuple![
        format!("id{i}").as_str(),
        format!("b{h1}").as_str(),
        a2.as_str(),
        format!("d{h2}").as_str(),
        format!("e{h2}").as_str(),
        format!("f{h3}").as_str(),
        format!("g{h3}").as_str(),
        format!("w{w}").as_str()
    ]
}

/// `r` tuples `0..n` plus the 64 `partner` rows.
pub fn churn_rows(schema: &Arc<Schema>, n: usize, seed: u64) -> Rows {
    let r = schema.rel_id("r").expect("r");
    let partner = schema.rel_id("partner").expect("partner");
    Rows {
        schema: schema.clone(),
        relations: vec![
            (r, (0..n).map(|i| churn_tuple(seed, i)).collect()),
            (
                partner,
                (0..64).map(|h| tuple![format!("b{h}").as_str()]).collect(),
            ),
        ],
    }
}

/// 200 CFDs sharing 10 distinct LHS attribute lists, mixing wildcard and
/// constant patterns.
pub fn churn_cfds(schema: &Arc<Schema>) -> Vec<NormalCfd> {
    let lhs_sets: [&[&str]; 10] = [
        &["a1"],
        &["a3"],
        &["a5"],
        &["a1", "a3"],
        &["a1", "a5"],
        &["a3", "a5"],
        &["a1", "a3", "a5"],
        &["a0"],
        &["a0", "a7"],
        &["a7", "a1"],
    ];
    let rhs_for = |lhs: &[&str]| {
        if lhs.contains(&"a0") || lhs.contains(&"a1") {
            "a2"
        } else if lhs.contains(&"a3") {
            "a4"
        } else {
            "a6"
        }
    };
    let mut cfds = Vec::with_capacity(200);
    for j in 0..200 {
        let lhs = lhs_sets[j % lhs_sets.len()];
        let rhs = rhs_for(lhs);
        let m = j % 16;
        let (lhs_pat, rhs_pat) = if m == 0 {
            (PatternRow::all_any(lhs.len()), PValue::Any)
        } else if m >= 12 {
            let cells: Vec<PValue> = lhs
                .iter()
                .map(|a| match *a {
                    "a1" => PValue::constant(format!("b{m}")),
                    _ => PValue::Any,
                })
                .collect();
            let rhs_c = if rhs == "a2" && lhs.contains(&"a1") {
                PValue::constant(format!("c{m}"))
            } else {
                PValue::Any
            };
            (PatternRow::new(cells), rhs_c)
        } else {
            let cells: Vec<PValue> = lhs
                .iter()
                .enumerate()
                .map(|(i, a)| match (i, *a) {
                    (0, "a1") => PValue::constant(format!("b{m}")),
                    (0, "a3") => PValue::constant(format!("d{m}")),
                    (0, "a5") => PValue::constant(format!("f{m}")),
                    (0, "a7") => PValue::constant(format!("w{}", m % 8)),
                    _ => PValue::Any,
                })
                .collect();
            (PatternRow::new(cells), PValue::Any)
        };
        cfds.push(NormalCfd::parse(schema, "r", lhs, lhs_pat, rhs, rhs_pat).expect("valid CFD"));
    }
    cfds
}

/// `r[a1] ⊆ partner[p]` and `partner[p] ⊆ r[a1]`.
pub fn churn_cinds(schema: &Arc<Schema>) -> Vec<NormalCind> {
    vec![
        NormalCind::parse(schema, "r", &["a1"], &[], "partner", &["p"], &[]).expect("valid CIND"),
        NormalCind::parse(schema, "partner", &["p"], &[], "r", &["a1"], &[]).expect("valid CIND"),
    ]
}

/// Churn windows over `r`: each deletes random resident tuples and
/// inserts as many non-resident ones, interleaved. Inserted tuples come
/// from a fixed pool of ids — the `n` initial ones plus `spare` more — so
/// a run reaches a steady state: the engine's dictionaries and key
/// groups stop growing after a few hundred windows, and a window costs
/// the same however many came before it. Deterministic for its seed.
#[derive(Clone, Debug)]
pub struct ChurnWindows {
    rel: RelId,
    seed: u64,
    resident: Vec<usize>,
    absent: Vec<usize>,
    state: u64,
}

impl ChurnWindows {
    pub fn new(rel: RelId, n: usize, spare: usize, seed: u64) -> Self {
        ChurnWindows {
            rel,
            seed,
            resident: (0..n).collect(),
            absent: (n..n + spare).collect(),
            state: splitmix(!seed),
        }
    }

    /// The next window of `size` mutations (`size / 2` deletes and as
    /// many inserts).
    pub fn next_window(&mut self, size: usize) -> Vec<Mutation> {
        let mut window = Vec::with_capacity(size);
        for _ in 0..size / 2 {
            let at = self.pick(self.resident.len());
            let gone = self.resident.swap_remove(at);
            let at = self.pick(self.absent.len());
            let back = self.absent.swap_remove(at);
            self.absent.push(gone);
            self.resident.push(back);
            window.push(Mutation::Delete {
                rel: self.rel,
                tuple: churn_tuple(self.seed, gone),
            });
            window.push(Mutation::Insert {
                rel: self.rel,
                tuple: churn_tuple(self.seed, back),
            });
        }
        window
    }

    fn pick(&mut self, len: usize) -> usize {
        (xorshift(&mut self.state) % len as u64) as usize
    }
}

/// Poisoned `(pair, class)` slots where the dirty value outnumbers the
/// clean one in `db`.
pub fn majority_flips(db: &Database, poisoned: &[PoisonedClass]) -> usize {
    let Ok(fact) = db.schema().rel_id("fact") else {
        return 0;
    };
    let fact_rs = db.schema().relation(fact).expect("in range");
    poisoned
        .iter()
        .filter(|slot| {
            let (Ok(k), Ok(d)) = (
                fact_rs.attr_id(&format!("k{}", slot.pair)),
                fact_rs.attr_id(&format!("d{}", slot.pair)),
            ) else {
                return false;
            };
            let (mut dirty, mut clean) = (0usize, 0usize);
            for t in db.relation(fact).iter().filter(|t| t[k] == slot.key) {
                if t[d] == slot.dirty_value {
                    dirty += 1;
                } else if t[d] == slot.clean_value {
                    clean += 1;
                }
            }
            dirty > clean
        })
        .count()
}
