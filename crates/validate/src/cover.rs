//! Σ cover compilation — shrink the dependency set *before* group
//! compilation so redundant dependencies never reach the hot path.
//!
//! Two tiers, distinguished by what they preserve:
//!
//! * [`SigmaCover::exact`] — **violation-exact** merges only. CFD
//!   pattern-tableau rows that agree on `(relation, LHS set, RHS
//!   attribute, RHS pattern)` and whose LHS patterns are comparable under
//!   subsumption collapse into the most general row; payload-identical
//!   CIND duplicates collapse into their first occurrence. Because a
//!   subsumed row's violations are exactly the subsumer's violations
//!   restricted to key-groups matching the subsumed pattern — and that
//!   filter can be re-evaluated on the key at emission time — a validator
//!   compiled from an exact cover reports **byte-identical** violations
//!   against the caller's original Σ indices (see the provenance fan-out
//!   in `validator.rs` / `stream.rs`).
//! * [`SigmaCover::minimal`] — additionally drops whole dependencies
//!   implied by the surviving rest, reusing the exact engines:
//!   `condep_cfd::implication::implies` (the two-tuple SAT decider,
//!   under `ImplicationConfig::max_conflicts`) and
//!   `condep_core::cover::minimal_cover` for CINDs. `Unknown` verdicts
//!   (a tripped budget) keep the candidate, so the surviving set
//!   is always logically equivalent to the input — but a dependency
//!   dropped this way has no violation-exact representative, so the
//!   minimal tier is **satisfaction**-preserving only. It is the right
//!   tier for discovery dedup and clean-monitoring workloads, not for
//!   per-index violation reporting.

use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_model::fxhash::FxBuildHasher;
use condep_model::{AttrId, Implication, ImplicationConfig, PValue, RelId, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Where one original dependency ended up after cover compilation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoverRole {
    /// Survives as a representative. `covered` lists the original
    /// indices merged into it (self excluded, attachment order).
    Keep {
        /// Original indices whose violations this representative now
        /// carries (each filtered by its own pattern at emission).
        covered: Vec<usize>,
    },
    /// Merged into the surviving representative at the given original
    /// index: the representative's violations, filtered by this
    /// dependency's own pattern, are exactly this dependency's
    /// violations.
    MergedInto(usize),
    /// Dropped by implication analysis: the surviving set implies it.
    /// Satisfaction-equivalent, **not** violation-exact — only
    /// [`SigmaCover::minimal`] produces this role.
    Implied,
}

impl CoverRole {
    /// Whether this dependency survives compilation.
    pub fn is_kept(&self) -> bool {
        matches!(self, CoverRole::Keep { .. })
    }
}

/// Statistics of one cover computation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoverStats {
    /// CFD tableau rows merged into a subsuming representative.
    pub cfd_merged: usize,
    /// CFDs dropped as implied by the surviving rest (minimal tier).
    pub cfd_implied: usize,
    /// CFD implication checks that hit the budget (candidate kept).
    pub cfd_unknown_kept: usize,
    /// CIND duplicates merged into their first occurrence.
    pub cind_merged: usize,
    /// CINDs dropped as implied by the surviving rest (minimal tier).
    pub cind_implied: usize,
    /// CIND implication checks that hit the budget (candidate kept).
    pub cind_unknown_kept: usize,
}

impl condep_telemetry::Export for CoverStats {
    fn export(&self, prefix: &str, out: &mut condep_telemetry::MetricsSnapshot) {
        let k = |name| condep_telemetry::key(prefix, name);
        out.counter(k("cfd_merged"), self.cfd_merged as u64);
        out.counter(k("cfd_implied"), self.cfd_implied as u64);
        out.counter(k("cfd_unknown_kept"), self.cfd_unknown_kept as u64);
        out.counter(k("cind_merged"), self.cind_merged as u64);
        out.counter(k("cind_implied"), self.cind_implied as u64);
        out.counter(k("cind_unknown_kept"), self.cind_unknown_kept as u64);
    }
}

/// The cover of one constraint suite: a role per original dependency,
/// in the caller's index space.
#[derive(Clone, Debug)]
pub struct SigmaCover {
    /// Per original CFD index: its role.
    pub cfd: Vec<CoverRole>,
    /// Per original CIND index: its role.
    pub cind: Vec<CoverRole>,
    /// What the computation merged/dropped.
    pub stats: CoverStats,
}

impl SigmaCover {
    /// The identity cover: every dependency survives, covering nothing.
    pub fn identity(n_cfds: usize, n_cinds: usize) -> Self {
        SigmaCover {
            cfd: (0..n_cfds)
                .map(|_| CoverRole::Keep {
                    covered: Vec::new(),
                })
                .collect(),
            cind: (0..n_cinds)
                .map(|_| CoverRole::Keep {
                    covered: Vec::new(),
                })
                .collect(),
            stats: CoverStats::default(),
        }
    }

    /// The violation-exact tier: subsumption merges of CFD tableau rows
    /// and payload-identical CIND duplicates. No implication engine is
    /// invoked; the pass is a pure hashing/subsumption scan and safe to
    /// run on every compilation.
    pub fn exact(cfds: &[NormalCfd], cinds: &[NormalCind]) -> Self {
        let mut stats = CoverStats::default();
        let cfd = exact_cfd_roles(cfds, &mut stats);
        let cind = exact_cind_roles(cinds, &mut stats);
        SigmaCover { cfd, cind, stats }
    }

    /// The satisfaction-preserving tier: [`SigmaCover::exact`] followed
    /// by greedy implication-based drops of whole representatives.
    /// `Unknown` verdicts keep the candidate, so the surviving set is
    /// always equivalent to the input.
    pub fn minimal(
        schema: &Arc<Schema>,
        cfds: &[NormalCfd],
        cinds: &[NormalCind],
        config: ImplicationConfig,
    ) -> Self {
        let mut cover = SigmaCover::exact(cfds, cinds);

        // CFDs: examine surviving representatives in input order; each
        // drop re-examines against the *current* reduced set (mirrors
        // `condep_core::cover::minimal_cover`). A representative's merged
        // rows are subsumption-implied by it, hence also implied by
        // whatever implies the representative — the whole cover group is
        // dropped together.
        let mut reps: Vec<usize> = cover
            .cfd
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_kept())
            .map(|(i, _)| i)
            .collect();
        let mut i = 0;
        while i < reps.len() {
            let cand = reps[i];
            let rest: Vec<NormalCfd> = reps
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, &r)| cfds[r].clone())
                .collect();
            match condep_cfd::implication::implies(schema, &rest, &cfds[cand], config) {
                Implication::Implied => {
                    let role = std::mem::replace(&mut cover.cfd[cand], CoverRole::Implied);
                    cover.stats.cfd_implied += 1;
                    if let CoverRole::Keep { covered } = role {
                        for c in covered {
                            cover.cfd[c] = CoverRole::Implied;
                            cover.stats.cfd_merged -= 1;
                            cover.stats.cfd_implied += 1;
                        }
                    }
                    reps.remove(i);
                }
                Implication::NotImplied => i += 1,
                Implication::Unknown => {
                    cover.stats.cfd_unknown_kept += 1;
                    i += 1;
                }
            }
        }

        // CINDs: delegate to the Section 8 cover over the surviving
        // representatives and map the verdicts back to original indices.
        let cind_reps: Vec<usize> = cover
            .cind
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_kept())
            .map(|(i, _)| i)
            .collect();
        let rep_cinds: Vec<NormalCind> = cind_reps.iter().map(|&i| cinds[i].clone()).collect();
        let c = condep_core::cover::minimal_cover(schema, &rep_cinds, config);
        for &ri in &c.removed {
            let orig = cind_reps[ri];
            let role = std::mem::replace(&mut cover.cind[orig], CoverRole::Implied);
            cover.stats.cind_implied += 1;
            if let CoverRole::Keep { covered } = role {
                for cc in covered {
                    cover.cind[cc] = CoverRole::Implied;
                    cover.stats.cind_merged -= 1;
                    cover.stats.cind_implied += 1;
                }
            }
        }
        cover.stats.cind_unknown_kept += c.undecided.len();
        cover
    }

    /// Indices of the surviving CFDs, ascending.
    pub fn kept_cfds(&self) -> Vec<usize> {
        self.cfd
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_kept())
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of the surviving CINDs, ascending.
    pub fn kept_cinds(&self) -> Vec<usize> {
        self.cind
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_kept())
            .map(|(i, _)| i)
            .collect()
    }
}

/// `general` subsumes `specific` when every constant cell of `general`
/// is carried verbatim by `specific` (both aligned on the same canonical
/// attribute order). Equal patterns subsume each other.
pub(crate) fn subsumes(general: &[Option<Value>], specific: &[Option<Value>]) -> bool {
    debug_assert_eq!(general.len(), specific.len());
    general.iter().zip(specific).all(|(g, s)| match g {
        None => true,
        Some(gv) => s.as_ref() == Some(gv),
    })
}

/// The canonical (sorted-LHS) pattern of one CFD, cells cloned.
pub(crate) fn canonical_pattern(cfd: &NormalCfd) -> (Vec<AttrId>, Vec<Option<Value>>) {
    let (attrs, pattern) = cfd.canonical_lhs();
    (attrs, pattern.into_iter().map(|c| c.cloned()).collect())
}

fn exact_cfd_roles(cfds: &[NormalCfd], stats: &mut CoverStats) -> Vec<CoverRole> {
    type Key = (RelId, Vec<AttrId>, AttrId, Option<Value>);
    struct Kept {
        rep: usize,
        pattern: Vec<Option<Value>>,
        covered: Vec<usize>,
    }
    let mut buckets: HashMap<Key, Vec<Kept>, FxBuildHasher> = HashMap::default();
    for (idx, cfd) in cfds.iter().enumerate() {
        let (attrs, pattern) = canonical_pattern(cfd);
        let rhs_const = match cfd.rhs_pat() {
            PValue::Const(v) => Some(v.clone()),
            PValue::Any => None,
        };
        let bucket = buckets
            .entry((cfd.rel(), attrs, cfd.rhs(), rhs_const))
            .or_default();
        // Attach to the first kept row subsuming this one (ties — equal
        // patterns — deterministically keep the earliest index).
        if let Some(k) = bucket.iter_mut().find(|k| subsumes(&k.pattern, &pattern)) {
            k.covered.push(idx);
            continue;
        }
        // Otherwise swallow every kept row this one subsumes; the
        // newcomer becomes the bucket's (more general) representative.
        let mut covered = Vec::new();
        let mut i = 0;
        while i < bucket.len() {
            if subsumes(&pattern, &bucket[i].pattern) {
                let k = bucket.remove(i);
                covered.push(k.rep);
                covered.extend(k.covered);
            } else {
                i += 1;
            }
        }
        bucket.push(Kept {
            rep: idx,
            pattern,
            covered,
        });
    }
    let mut roles: Vec<CoverRole> = (0..cfds.len())
        .map(|_| CoverRole::Keep {
            covered: Vec::new(),
        })
        .collect();
    for bucket in buckets.into_values() {
        for k in bucket {
            for &c in &k.covered {
                roles[c] = CoverRole::MergedInto(k.rep);
                stats.cfd_merged += 1;
            }
            roles[k.rep] = CoverRole::Keep { covered: k.covered };
        }
    }
    roles
}

fn exact_cind_roles(cinds: &[NormalCind], stats: &mut CoverStats) -> Vec<CoverRole> {
    // Violation payloads are `(source position, t1.project(x))`, so two
    // CINDs are payload-identical only when they agree on the source
    // relation, the X *sequence*, the Xp trigger, and the full target
    // side — i.e. they are the same dependency up to Xp/Yp ordering.
    type Key = (
        RelId,
        Vec<AttrId>,
        Vec<(AttrId, Value)>,
        RelId,
        Vec<AttrId>,
        Vec<(AttrId, Value)>,
    );
    let mut first_seen: HashMap<Key, usize, FxBuildHasher> = HashMap::default();
    let mut roles: Vec<CoverRole> = (0..cinds.len())
        .map(|_| CoverRole::Keep {
            covered: Vec::new(),
        })
        .collect();
    for (idx, cind) in cinds.iter().enumerate() {
        let mut xp = cind.xp().to_vec();
        xp.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let mut yp = cind.yp().to_vec();
        yp.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let key: Key = (
            cind.lhs_rel(),
            cind.x().to_vec(),
            xp,
            cind.rhs_rel(),
            cind.y().to_vec(),
            yp,
        );
        match first_seen.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let rep = *e.get();
                if let CoverRole::Keep { covered } = &mut roles[rep] {
                    covered.push(idx);
                }
                roles[idx] = CoverRole::MergedInto(rep);
                stats.cind_merged += 1;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(idx);
            }
        }
    }
    roles
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_model::{prow, Domain, Value};

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .relation(
                    "r",
                    &[
                        ("a", Domain::string()),
                        ("b", Domain::string()),
                        ("c", Domain::string()),
                    ],
                )
                .relation("s", &[("x", Domain::string()), ("y", Domain::string())])
                .finish(),
        )
    }

    fn fd(schema: &Arc<Schema>, lhs: &[&str], pat: condep_model::PatternRow) -> NormalCfd {
        NormalCfd::parse(schema, "r", lhs, pat, "b", PValue::Any).unwrap()
    }

    #[test]
    fn empty_sigma_has_empty_cover() {
        let schema = schema();
        for cover in [
            SigmaCover::exact(&[], &[]),
            SigmaCover::minimal(&schema, &[], &[], ImplicationConfig::default()),
        ] {
            assert!(cover.cfd.is_empty());
            assert!(cover.cind.is_empty());
            assert_eq!(cover.stats, CoverStats::default());
            assert!(cover.kept_cfds().is_empty());
            assert!(cover.kept_cinds().is_empty());
        }
    }

    #[test]
    fn equal_patterns_merge_into_earliest_index() {
        let schema = schema();
        let sigma = vec![
            fd(&schema, &["a"], prow![_]),
            fd(&schema, &["a"], prow![_]),
            fd(&schema, &["a"], prow![_]),
        ];
        let cover = SigmaCover::exact(&sigma, &[]);
        assert_eq!(
            cover.cfd[0],
            CoverRole::Keep {
                covered: vec![1, 2]
            }
        );
        assert_eq!(cover.cfd[1], CoverRole::MergedInto(0));
        assert_eq!(cover.cfd[2], CoverRole::MergedInto(0));
        assert_eq!(cover.stats.cfd_merged, 2);
        assert_eq!(cover.kept_cfds(), vec![0]);
    }

    #[test]
    fn wildcard_and_constant_rhs_never_share_a_bucket() {
        let schema = schema();
        // Identical LHS patterns, but one row binds the RHS to a
        // constant: a wildcard-RHS violation is a *pair*, a constant-RHS
        // violation is a *single tuple* — merging them would change the
        // report. Within each bucket, subsumption still merges.
        let sigma = vec![
            fd(&schema, &["a"], prow![_]),
            NormalCfd::parse(&schema, "r", &["a"], prow![_], "b", PValue::constant("x")).unwrap(),
            fd(&schema, &["a"], prow!["k"]),
            NormalCfd::parse(&schema, "r", &["a"], prow!["k"], "b", PValue::constant("x")).unwrap(),
        ];
        let cover = SigmaCover::exact(&sigma, &[]);
        assert_eq!(cover.cfd[0], CoverRole::Keep { covered: vec![2] });
        assert_eq!(cover.cfd[1], CoverRole::Keep { covered: vec![3] });
        assert_eq!(cover.cfd[2], CoverRole::MergedInto(0));
        assert_eq!(cover.cfd[3], CoverRole::MergedInto(1));
        assert_eq!(cover.stats.cfd_merged, 2);
        assert_eq!(cover.kept_cfds(), vec![0, 1]);
    }

    #[test]
    fn later_general_row_swallows_earlier_specific_rows() {
        let schema = schema();
        let sigma = vec![
            fd(&schema, &["a"], prow!["k1"]),
            fd(&schema, &["a"], prow!["k2"]),
            fd(&schema, &["a"], prow![_]),
        ];
        let cover = SigmaCover::exact(&sigma, &[]);
        assert_eq!(cover.cfd[0], CoverRole::MergedInto(2));
        assert_eq!(cover.cfd[1], CoverRole::MergedInto(2));
        assert_eq!(
            cover.cfd[2],
            CoverRole::Keep {
                covered: vec![0, 1]
            }
        );
        assert_eq!(cover.kept_cfds(), vec![2]);
    }

    #[test]
    fn incomparable_patterns_stay_separate() {
        let schema = schema();
        let sigma = vec![
            fd(&schema, &["a", "c"], prow!["k", _]),
            fd(&schema, &["a", "c"], prow![_, "m"]),
        ];
        let cover = SigmaCover::exact(&sigma, &[]);
        assert_eq!(cover.kept_cfds(), vec![0, 1]);
        assert_eq!(cover.stats.cfd_merged, 0);
    }

    #[test]
    fn mutually_implying_cfds_drop_the_first_examined() {
        // Over a singleton domain for `a`, `(a = z0, c) → b` and
        // `c → b` are logically equivalent but live in different
        // buckets (different LHS sets), so only the minimal tier can
        // collapse them. The greedy pass examines representatives in
        // input order and drops the first of a mutually-implying pair —
        // whichever it is — so the survivor is deterministic per input
        // order and the pair never vanishes entirely.
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "r",
                    &[
                        ("a", Domain::finite_strs(&["z0"])),
                        ("b", Domain::string()),
                        ("c", Domain::string()),
                    ],
                )
                .finish(),
        );
        let specific =
            NormalCfd::parse(&schema, "r", &["a", "c"], prow!["z0", _], "b", PValue::Any).unwrap();
        let general = NormalCfd::parse(&schema, "r", &["c"], prow![_], "b", PValue::Any).unwrap();
        let config = ImplicationConfig::default();

        let forward = vec![specific.clone(), general.clone()];
        let cover = SigmaCover::exact(&forward, &[]);
        assert_eq!(cover.kept_cfds(), vec![0, 1], "exact tier keeps both");
        let cover = SigmaCover::minimal(&schema, &forward, &[], config);
        assert_eq!(cover.kept_cfds(), vec![1]);
        assert_eq!(cover.cfd[0], CoverRole::Implied);
        assert_eq!(cover.stats.cfd_implied, 1);

        let reverse = vec![general, specific];
        let cover = SigmaCover::minimal(&schema, &reverse, &[], config);
        assert_eq!(cover.kept_cfds(), vec![1]);
        assert_eq!(cover.cfd[0], CoverRole::Implied);
    }

    #[test]
    fn implied_representative_takes_its_merged_rows_down() {
        // A representative that carried merged duplicates is dropped by
        // implication: the duplicates' violations were defined through
        // it, so they become `Implied` too and the stats rebalance.
        let schema = Arc::new(
            Schema::builder()
                .relation(
                    "r",
                    &[
                        ("a", Domain::finite_strs(&["z0"])),
                        ("b", Domain::string()),
                        ("c", Domain::string()),
                    ],
                )
                .finish(),
        );
        let specific =
            NormalCfd::parse(&schema, "r", &["a", "c"], prow!["z0", _], "b", PValue::Any).unwrap();
        let general = NormalCfd::parse(&schema, "r", &["c"], prow![_], "b", PValue::Any).unwrap();
        let sigma = vec![specific.clone(), specific, general];
        let cover = SigmaCover::minimal(&schema, &sigma, &[], ImplicationConfig::default());
        assert_eq!(cover.kept_cfds(), vec![2]);
        assert_eq!(cover.cfd[0], CoverRole::Implied);
        assert_eq!(cover.cfd[1], CoverRole::Implied);
        assert_eq!(cover.stats.cfd_merged, 0);
        assert_eq!(cover.stats.cfd_implied, 2);
    }

    #[test]
    fn cind_duplicates_merge_up_to_condition_ordering() {
        let schema = schema();
        let v = |s: &str| Value::from(s);
        // Same dependency with the Xp/Yp condition pairs permuted — the
        // violation payload is identical, so they merge; flipping a
        // condition *value* keeps them apart.
        let sigma = vec![
            NormalCind::parse(
                &schema,
                "r",
                &["a"],
                &[("b", v("u")), ("c", v("w"))],
                "s",
                &["x"],
                &[],
            )
            .unwrap(),
            NormalCind::parse(
                &schema,
                "r",
                &["a"],
                &[("c", v("w")), ("b", v("u"))],
                "s",
                &["x"],
                &[],
            )
            .unwrap(),
            NormalCind::parse(
                &schema,
                "r",
                &["a"],
                &[("c", v("OTHER")), ("b", v("u"))],
                "s",
                &["x"],
                &[],
            )
            .unwrap(),
        ];
        let cover = SigmaCover::exact(&[], &sigma);
        assert_eq!(cover.cind[0], CoverRole::Keep { covered: vec![1] });
        assert_eq!(cover.cind[1], CoverRole::MergedInto(0));
        assert_eq!(cover.cind[2], CoverRole::Keep { covered: vec![] });
        assert_eq!(cover.stats.cind_merged, 1);
        assert_eq!(cover.kept_cinds(), vec![0, 2]);
    }
}
