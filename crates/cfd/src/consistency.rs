//! The SAT decider for CFD consistency and implication.
//!
//! Section 4 reduces both static CFD questions to one or two tuples:
//!
//! * **Consistency.** CFD satisfaction is closed under sub-instances, so
//!   a CFD set on `R` has a nonempty model iff it has a one-tuple model.
//! * **Implication.** A CFD violation involves at most two tuples, so
//!   `Σ ⊭ φ` iff some instance of one or two tuples satisfies `Σ` and
//!   violates `φ`.
//!
//! One CNF encoding over symbolic tuples answers both, with one
//! propositional variable per `(tuple, attribute, value)` choice:
//!
//! - **Finite attribute**: exactly-one over the domain's values.
//! - **Infinite attribute**: at-most-one over the constants the encoded
//!   CFDs mention for it; all-false means "some fresh value" that
//!   matches no mentioned constant (an infinite domain always has one).
//! - **Constant-RHS CFD** `(X → A, (pat ‖ c))`: a tuple violates it iff
//!   the pattern matches and `t[A] ≠ c`, giving the clause
//!   `¬pat₁ ∨ … ∨ ¬patₖ ∨ (A=c)` on each tuple.
//! - **Wildcard-RHS CFD** `(X → A, (pat ‖ _))`: vacuous on one tuple, so
//!   it contributes nothing there (and can never sit in an unsat core).
//!   With two tuples each attribute `B` gets an equality variable `e_B`
//!   for `t1[B] = t2[B]`, tied to the value blocks, and the row becomes
//!   the pair clause `¬e_X ∨ ¬pat(t1) ∨ e_A`. When both tuples take
//!   fresh values `e_B` stays free, which is exact: an infinite domain
//!   has fresh values that are equal and fresh values that differ.
//!
//! [`relation_consistency`] encodes one tuple and shrinks a minimal
//! unsat core; the Σ analyzer, discovery's keep stage and the Section 5
//! `SatCfdChecker` call it. [`crate::implication::implies`] encodes
//! `Σ` together with `¬φ` and reads `Unsat` as "implied".

use crate::syntax::NormalCfd;
use condep_model::{AttrId, Implication, RelId, Schema, Tuple, Value};
use condep_sat::{Cnf, Lit, SolveResult, Solver, SolverConfig, Var};

/// Outcome of deciding one relation's CFD set.
#[derive(Debug, Clone)]
pub enum RelationVerdict {
    /// A single-tuple witness for the relation.
    Sat(Tuple),
    /// No nonempty instance of the relation satisfies the set; the
    /// payload is a **minimal** unsat core of the caller's indices.
    Unsat(Vec<usize>),
    /// The solver's conflict budget tripped before a decision.
    Unknown,
}

/// Per-attribute variable blocks, one per symbolic tuple.
struct AttrVars {
    finite: bool,
    /// Domain values (finite) or mentioned constants (infinite).
    values: Vec<Value>,
    /// `vars[k][i]` asserts `t_k[attr] = values[i]`.
    vars: Vec<Vec<Var>>,
    /// With two tuples: asserts `t1[attr] = t2[attr]`.
    eq: Option<Var>,
}

struct Encoding {
    cnf: Cnf,
    attrs: Vec<AttrVars>,
    /// Caller indices of CFDs that contributed a clause.
    contributing: Vec<usize>,
}

/// Encode the active CFD subset for `rel` into CNF. Without `phi` this
/// is the one-tuple consistency encoding. With `phi` the value blocks of
/// infinite attributes also cover `φ`'s constants, and `¬φ` is added
/// over the tuples a violation of `φ` needs: one for a constant RHS
/// (any violation of it already contains a one-tuple violation), two
/// for a wildcard RHS. The one-tuple variable and clause order decides
/// which witness and minimal core the analyzer reports, so changing it
/// moves the scoreboard's `sigma_lint` counters.
fn encode(
    schema: &Schema,
    rel: RelId,
    active: &[(usize, &NormalCfd)],
    phi: Option<&NormalCfd>,
) -> Encoding {
    let tuples = match phi {
        Some(phi) if phi.rhs_pat().as_const().is_none() => 2,
        _ => 1,
    };
    let rs = schema.relation(rel).expect("relation in schema");
    let mut cnf = Cnf::new();
    let mut attrs: Vec<AttrVars> = Vec::with_capacity(rs.arity());

    // The constants the encoded CFDs mention, per attribute, in order of
    // first mention.
    let mut mentioned: Vec<Vec<Value>> = vec![Vec::new(); rs.arity()];
    for cfd in active.iter().map(|&(_, c)| c).chain(phi) {
        let lhs = cfd.lhs().iter().copied().zip(cfd.lhs_pat().cells());
        for (a, cell) in lhs.chain([(cfd.rhs(), cfd.rhs_pat())]) {
            if let Some(v) = cell.as_const() {
                let seen = &mut mentioned[a.index()];
                if !seen.contains(v) {
                    seen.push(v.clone());
                }
            }
        }
    }

    for ((attr, a), mentioned) in rs.iter().zip(mentioned) {
        let (finite, values) = match a.domain().values() {
            Some(values) => (true, values.to_vec()),
            None => (false, mentioned),
        };
        let vars: Vec<Vec<Var>> = (0..tuples)
            .map(|_| {
                let block = cnf.fresh_vars(values.len());
                let lits: Vec<Lit> = block.iter().map(|v| v.pos()).collect();
                if finite {
                    cnf.add_exactly_one(&lits);
                } else if lits.len() > 1 {
                    cnf.add_at_most_one(&lits);
                }
                block
            })
            .collect();
        // Both tuples take v ⇒ equal; exactly one takes v ⇒ different.
        let eq = (tuples == 2).then(|| {
            let e = cnf.fresh_var();
            for (x1, x2) in vars[0].iter().zip(&vars[1]) {
                let (x1, x2, e) = (x1.pos(), x2.pos(), e.pos());
                cnf.add_clause([!x1, !x2, e]);
                cnf.add_clause([!x1, x2, !e]);
                cnf.add_clause([x1, !x2, !e]);
            }
            e
        });
        attrs.push(AttrVars {
            finite,
            values,
            vars,
            eq,
        });
        debug_assert_eq!(attrs.len() - 1, attr.index());
    }

    let mut enc = Encoding {
        cnf,
        attrs,
        contributing: Vec::new(),
    };
    for &(idx, cfd) in active {
        if enc.add_row(cfd, tuples) {
            enc.contributing.push(idx);
        }
    }
    if let Some(phi) = phi {
        enc.refute(phi);
    }
    enc
}

impl Encoding {
    /// Literal asserting `t_k[attr] = v`, or `None` when the value is
    /// outside a finite domain (no tuple takes it).
    fn value_lit(&self, k: usize, attr: AttrId, v: &Value) -> Option<Lit> {
        let av = &self.attrs[attr.index()];
        av.values
            .iter()
            .position(|x| x == v)
            .map(|i| av.vars[k][i].pos())
    }

    /// Literal asserting `t1[attr] = t2[attr]` (two-tuple encodings).
    fn eq_lit(&self, attr: AttrId) -> Lit {
        self.attrs[attr.index()].eq.expect("two tuples").pos()
    }

    /// The literals of "`t_k` matches `cfd`'s LHS pattern", one per
    /// constant cell; `None` when a premise constant lies outside its
    /// finite domain, so no tuple matches.
    fn premise(&self, k: usize, cfd: &NormalCfd) -> Option<Vec<Lit>> {
        cfd.lhs()
            .iter()
            .zip(cfd.lhs_pat().cells())
            .filter_map(|(&a, cell)| cell.as_const().map(|v| self.value_lit(k, a, v)))
            .collect()
    }

    /// Add the clauses of one Σ row; returns whether it contributed.
    fn add_row(&mut self, cfd: &NormalCfd, tuples: usize) -> bool {
        // `None` throughout means the row is vacuous: a premise constant
        // lies outside its finite domain, or the RHS is a variable and
        // there is a single tuple.
        let clauses: Option<Vec<Vec<Lit>>> = match cfd.rhs_pat().as_const() {
            // An RHS constant outside the finite domain contributes no
            // literal: the conclusion can never hold, so the clause keeps
            // only the negated premise (empty if the premise is
            // all-wildcard).
            Some(c) => (0..tuples)
                .map(|k| {
                    let premise = self.premise(k, cfd)?;
                    let conclusion = self.value_lit(k, cfd.rhs(), c);
                    Some(premise.iter().map(|l| !*l).chain(conclusion).collect())
                })
                .collect(),
            None if tuples == 1 => None,
            None => self.premise(0, cfd).map(|premise| {
                let agree = cfd.lhs().iter().map(|&x| !self.eq_lit(x));
                let unmatched = premise.iter().map(|l| !*l);
                vec![agree
                    .chain(unmatched)
                    .chain([self.eq_lit(cfd.rhs())])
                    .collect()]
            }),
        };
        let Some(clauses) = clauses else {
            return false;
        };
        for clause in clauses {
            self.cnf.add_clause(clause);
        }
        true
    }

    /// Add `¬φ` as units: `t1` matches `φ`'s premise and either misses its
    /// RHS constant or, for a wildcard RHS, agrees with `t2` on `X` but
    /// not on `A`.
    fn refute(&mut self, phi: &NormalCfd) {
        // φ's premise never matches: nothing violates φ.
        let Some(mut units) = self.premise(0, phi) else {
            return self.cnf.add_clause([]);
        };
        match phi.rhs_pat().as_const() {
            // A constant outside the finite domain is never taken, so
            // `t1[A] ≠ c` needs no literal.
            Some(c) => units.extend(self.value_lit(0, phi.rhs(), c).map(|l| !l)),
            None => {
                units.extend(phi.lhs().iter().map(|&x| self.eq_lit(x)));
                units.push(!self.eq_lit(phi.rhs()));
            }
        }
        for unit in units {
            self.cnf.add_unit(unit);
        }
    }

    /// Extend a one-tuple encoding with pinned cell values (used by the
    /// analyzer's CIND chase). Returns `false` when a pin is
    /// unsatisfiable (finite domain missing the value).
    fn apply_pins(&mut self, pins: &[(AttrId, Value)]) -> bool {
        for (attr, v) in pins {
            let av = &mut self.attrs[attr.index()];
            let pos = match av.values.iter().position(|x| x == v) {
                Some(p) => p,
                None if av.finite => return false,
                None => {
                    // Infinite attr pinned to an unmentioned constant:
                    // introduce its variable so clauses stay sound (it can
                    // never equal a *different* mentioned constant).
                    av.values.push(v.clone());
                    av.vars[0].push(self.cnf.fresh_var());
                    let lits: Vec<Lit> = av.vars[0].iter().map(|x| x.pos()).collect();
                    if lits.len() > 1 {
                        self.cnf.add_at_most_one(&lits);
                    }
                    av.values.len() - 1
                }
            };
            let lit = self.attrs[attr.index()].vars[0][pos].pos();
            self.cnf.add_unit(lit);
        }
        true
    }

    /// Decode a model of a one-tuple encoding into the witness tuple.
    /// Fresh values for unconstrained infinite attrs avoid every
    /// mentioned constant plus the caller's `avoid` set (so the witness
    /// prefers not to trigger CIND conditions it doesn't have to).
    fn decode(
        &self,
        schema: &Schema,
        rel: RelId,
        model: &[bool],
        avoid: &[(AttrId, Value)],
    ) -> Tuple {
        let rs = schema.relation(rel).expect("relation in schema");
        let mut cells: Vec<Value> = Vec::with_capacity(rs.arity());
        for (attr, a) in rs.iter() {
            let av = &self.attrs[attr.index()];
            let chosen = av.vars[0]
                .iter()
                .position(|v| model[v.index()])
                .map(|i| av.values[i].clone());
            match chosen {
                Some(v) => cells.push(v),
                None => {
                    debug_assert!(!av.finite, "exactly-one guarantees a finite choice");
                    let extra = avoid.iter().filter(|(x, _)| *x == attr).map(|(_, v)| v);
                    let fresh = a
                        .domain()
                        .fresh_value(av.values.iter().chain(extra))
                        .expect("infinite domain always has a fresh value");
                    cells.push(fresh);
                }
            }
        }
        Tuple::new(cells)
    }
}

fn solve(cnf: &Cnf, max_conflicts: Option<u64>) -> SolveResult {
    if cnf.is_trivially_unsat() {
        return SolveResult::Unsat;
    }
    Solver::with_config(cnf, SolverConfig { max_conflicts }).solve()
}

/// Decide consistency of `cfds` (pairs of caller index + CFD, all on
/// `rel`) over a single hypothetical tuple, with pinned cells.
///
/// On `Unsat` the returned core is shrunk by deletion until minimal:
/// every index is necessary (dropping any one makes the rest — plus
/// the pins — satisfiable). `avoid` only biases fresh-value choice in
/// the witness; it never affects the verdict. `max_conflicts` is the
/// conflict budget of each SAT solve (`None` = unbounded).
pub fn relation_consistency_pinned(
    schema: &Schema,
    rel: RelId,
    cfds: &[(usize, &NormalCfd)],
    pins: &[(AttrId, Value)],
    avoid: &[(AttrId, Value)],
    max_conflicts: Option<u64>,
) -> RelationVerdict {
    let run = |active: &[(usize, &NormalCfd)]| -> (SolveResult, Encoding) {
        let mut enc = encode(schema, rel, active, None);
        if !enc.apply_pins(pins) {
            return (SolveResult::Unsat, enc);
        }
        let r = solve(&enc.cnf, max_conflicts);
        (r, enc)
    };

    let (result, enc) = run(cfds);
    match result {
        SolveResult::Sat(model) => RelationVerdict::Sat(enc.decode(schema, rel, &model, avoid)),
        SolveResult::Unknown => RelationVerdict::Unknown,
        SolveResult::Unsat => {
            // Deletion-based shrink over the clause-contributing
            // subset. Non-contributing CFDs (variable RHS, dead rows)
            // can never be core members.
            let mut core: Vec<usize> = enc.contributing.clone();
            for candidate in enc.contributing {
                let trial: Vec<(usize, &NormalCfd)> = cfds
                    .iter()
                    .filter(|(i, _)| core.contains(i) && *i != candidate)
                    .copied()
                    .collect();
                let (r, _) = run(&trial);
                if matches!(r, SolveResult::Unsat) {
                    core.retain(|&i| i != candidate);
                }
                // Sat or Unknown: keep the candidate (conservative —
                // with the default budget tiny encodings never trip).
            }
            core.sort_unstable();
            RelationVerdict::Unsat(core)
        }
    }
}

/// Decide consistency of one relation's CFD set.
///
/// `cfds` pairs each CFD with the caller's index for it; the unsat core
/// is reported in that numbering.
pub fn relation_consistency(
    schema: &Schema,
    rel: RelId,
    cfds: &[(usize, &NormalCfd)],
    max_conflicts: Option<u64>,
) -> RelationVerdict {
    relation_consistency_pinned(schema, rel, cfds, &[], &[], max_conflicts)
}

/// Decide `Σ ⊨ φ` over `Σ`'s rows on `φ`'s relation: `Unsat` (no one- or
/// two-tuple counterexample) means implied.
pub(crate) fn implication(
    schema: &Schema,
    sigma: &[NormalCfd],
    phi: &NormalCfd,
    max_conflicts: Option<u64>,
) -> Implication {
    let active: Vec<(usize, &NormalCfd)> = sigma
        .iter()
        .filter(|c| c.rel() == phi.rel())
        .enumerate()
        .collect();
    let enc = encode(schema, phi.rel(), &active, Some(phi));
    match solve(&enc.cnf, max_conflicts) {
        SolveResult::Unsat => Implication::Implied,
        SolveResult::Sat(_) => Implication::NotImplied,
        SolveResult::Unknown => Implication::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::satisfy::satisfies_all;
    use condep_model::{prow, Database, Domain, PValue, PatternRow, Schema};
    use std::sync::Arc;

    fn ab_schema(a_dom: Domain, b_dom: Domain) -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .relation("r", &[("a", a_dom), ("b", b_dom)])
                .finish(),
        )
    }

    /// The verdict on the whole slice, numbered by position, unbounded.
    fn decide(schema: &Schema, rel: RelId, cfds: &[NormalCfd]) -> RelationVerdict {
        let active: Vec<(usize, &NormalCfd)> = cfds.iter().enumerate().collect();
        relation_consistency(schema, rel, &active, None)
    }

    fn consistent(schema: &Schema, rel: RelId, cfds: &[NormalCfd]) -> bool {
        matches!(decide(schema, rel, cfds), RelationVerdict::Sat(_))
    }

    /// The witness, checked to satisfy `cfds` as a singleton database.
    fn witness(schema: &Arc<Schema>, rel: RelId, cfds: &[NormalCfd]) -> Tuple {
        let RelationVerdict::Sat(w) = decide(schema, rel, cfds) else {
            panic!("expected a witness");
        };
        let mut db = Database::empty(schema.clone());
        db.insert(rel, w.clone()).unwrap();
        assert!(satisfies_all(&db, cfds));
        w
    }

    #[test]
    fn example_3_2_is_inconsistent() {
        // φ1: (A=true → B=b1), φ2: (A=false → B=b2),
        // φ3: (B=b1 → A=false), φ4: (B=b2 → A=true) over dom(A)=bool.
        let (schema, cfds) = fixtures::example_3_2();
        let rel = schema.rel_id("r").unwrap();
        assert!(matches!(
            decide(&schema, rel, &cfds),
            RelationVerdict::Unsat(core) if core == vec![0, 1, 2, 3]
        ));
    }

    #[test]
    fn example_3_2_with_infinite_a_is_consistent() {
        // The paper: "if dom(A) and dom(B) were infinite, we could find a
        // tuple t …" — the same constraints become consistent.
        let schema = ab_schema(Domain::string(), Domain::string());
        let rel = schema.rel_id("r").unwrap();
        let mk = |lp: PatternRow, rhs: &str, rp: &str| {
            NormalCfd::parse(
                &schema,
                "r",
                &[if rhs == "b" { "a" } else { "b" }],
                lp,
                rhs,
                PValue::constant(rp),
            )
            .unwrap()
        };
        let cfds = vec![
            mk(prow!["true"], "b", "b1"),
            mk(prow!["false"], "b", "b2"),
            mk(prow!["b1"], "a", "false"),
            mk(prow!["b2"], "a", "true"),
        ];
        witness(&schema, rel, &cfds);
    }

    #[test]
    fn unconditional_conflict_is_caught_without_finite_domains() {
        // (nil → A, a) and (nil → A, b): both fire on every tuple.
        let schema = ab_schema(Domain::string(), Domain::string());
        let rel = schema.rel_id("r").unwrap();
        let c1 = NormalCfd::parse(&schema, "r", &[], prow![], "a", PValue::constant("x")).unwrap();
        let c2 = NormalCfd::parse(&schema, "r", &[], prow![], "a", PValue::constant("y")).unwrap();
        assert!(!consistent(&schema, rel, &[c1.clone(), c2]));
        assert!(consistent(&schema, rel, &[c1]));
    }

    #[test]
    fn propagation_chains_through_forced_values() {
        // (nil → A, a) then (A=a → B, b1) and (A=a → B, b2): conflict.
        let schema = ab_schema(Domain::string(), Domain::string());
        let rel = schema.rel_id("r").unwrap();
        let force_a =
            NormalCfd::parse(&schema, "r", &[], prow![], "a", PValue::constant("a")).unwrap();
        let b = |c: &str| {
            NormalCfd::parse(&schema, "r", &["a"], prow!["a"], "b", PValue::constant(c)).unwrap()
        };
        assert!(!consistent(&schema, rel, &[force_a, b("b1"), b("b2")]));
        // Without the forcing CFD the premises never fire: consistent.
        assert!(consistent(&schema, rel, &[b("b1"), b("b2")]));
    }

    #[test]
    fn wildcard_rhs_never_blocks_a_single_tuple() {
        let schema = ab_schema(Domain::string(), Domain::string());
        let rel = schema.rel_id("r").unwrap();
        let fd = NormalCfd::parse(&schema, "r", &["a"], prow![_], "b", PValue::Any).unwrap();
        assert!(consistent(&schema, rel, &[fd]));
    }

    #[test]
    fn finite_enumeration_finds_the_one_good_value() {
        // dom(A) = {0,1,2}; A=0 and A=1 both force conflicts; A=2 is free.
        let schema = ab_schema(Domain::finite_ints(3), Domain::string());
        let rel = schema.rel_id("r").unwrap();
        let mk = |av: i64, b: &str| {
            NormalCfd::parse(
                &schema,
                "r",
                &["a"],
                PatternRow::new([PValue::constant(Value::int(av))]),
                "b",
                PValue::constant(b),
            )
            .unwrap()
        };
        let cfds = vec![mk(0, "x"), mk(0, "y"), mk(1, "u"), mk(1, "v")];
        assert_eq!(witness(&schema, rel, &cfds)[AttrId(0)], Value::int(2));
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let (schema, cfds) = fixtures::example_3_2();
        let rel = schema.rel_id("r").unwrap();
        let active: Vec<(usize, &NormalCfd)> = cfds.iter().enumerate().collect();
        // Refuting Example 3.2 takes at least one conflict.
        assert!(matches!(
            relation_consistency(&schema, rel, &active, Some(0)),
            RelationVerdict::Unknown
        ));
    }

    #[test]
    fn empty_set_is_consistent_everywhere() {
        let (schema, _) = fixtures::example_3_2();
        let rel = schema.rel_id("r").unwrap();
        witness(&schema, rel, &[]);
    }

    #[test]
    fn set_consistency_needs_only_one_relation() {
        // Two relations; CFDs inconsistent on r but absent on s → the set
        // is consistent (s can be nonempty, r empty).
        let schema = Arc::new(
            Schema::builder()
                .relation("r", &[("a", Domain::boolean()), ("b", Domain::string())])
                .relation("s", &[("c", Domain::string())])
                .finish(),
        );
        let (_, cfds) = fixtures::example_3_2();
        let (r, s) = (schema.rel_id("r").unwrap(), schema.rel_id("s").unwrap());
        assert!(!consistent(&schema, r, &cfds));
        witness(&schema, s, &[]);
    }

    #[test]
    fn witness_satisfies_random_style_mix() {
        let schema = ab_schema(Domain::boolean(), Domain::string());
        let rel = schema.rel_id("r").unwrap();
        let cfds = vec![
            NormalCfd::parse(
                &schema,
                "r",
                &["a"],
                PatternRow::new([PValue::constant(Value::bool(true))]),
                "b",
                PValue::constant("yes"),
            )
            .unwrap(),
            NormalCfd::parse(
                &schema,
                "r",
                &["b"],
                prow!["yes"],
                "a",
                PValue::constant(Value::bool(true)),
            )
            .unwrap(),
        ];
        witness(&schema, rel, &cfds);
    }

    #[test]
    fn pins_and_avoid_shape_the_witness() {
        let schema = ab_schema(Domain::string(), Domain::string());
        let rel = schema.rel_id("r").unwrap();
        let cfd =
            NormalCfd::parse(&schema, "r", &["a"], prow!["k"], "b", PValue::constant("v")).unwrap();
        let active = [(0, &cfd)];
        // Pinning the premise forces the conclusion.
        let pins = [(AttrId(0), Value::str("k"))];
        let RelationVerdict::Sat(t) =
            relation_consistency_pinned(&schema, rel, &active, &pins, &[], None)
        else {
            panic!("pinned premise is satisfiable");
        };
        assert_eq!(
            (&t[AttrId(0)], &t[AttrId(1)]),
            (&Value::str("k"), &Value::str("v"))
        );
        // A pin to an unmentioned constant, plus a clashing pin on b.
        let pins = [(AttrId(0), Value::str("k")), (AttrId(1), Value::str("w"))];
        assert!(matches!(
            relation_consistency_pinned(&schema, rel, &active, &pins, &[], None),
            RelationVerdict::Unsat(core) if core == vec![0]
        ));
        // `avoid` steers the fresh value, never the verdict.
        let avoid = [(AttrId(1), Value::str("x"))];
        let RelationVerdict::Sat(t) =
            relation_consistency_pinned(&schema, rel, &active, &[], &avoid, None)
        else {
            panic!("unpinned set is satisfiable");
        };
        assert_ne!(t[AttrId(1)], Value::str("x"));
    }
}
