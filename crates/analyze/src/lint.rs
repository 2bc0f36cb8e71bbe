//! The Σ lint catalogue: advisory findings beyond hard inconsistency.
//!
//! Lints never change a verdict — they name the *shape* of trouble so a
//! caller can point at the exact Σ indices involved. Every lint that
//! references a dependency does so by its index in the analyzed slice;
//! [`crate::SigmaAnalysis::remap`] translates them back into a caller's
//! original numbering when the analyzed slice was compacted.

use condep_cfd::NormalCfd;
use condep_core::NormalCind;
use condep_model::{AttrId, PValue, RelId, Schema, Value};
use std::fmt;

use crate::LINT_PAIR_CAP;

/// One advisory finding about a Σ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigmaLint {
    /// Two constant-RHS CFDs share a key group (relation + canonical
    /// LHS attributes), their pattern rows are compatible (some tuple
    /// matches both), and they force *different* constants on the same
    /// RHS attribute — any tuple matching both patterns is a
    /// contradiction.
    KeyGroupConflict {
        /// Relation both CFDs constrain.
        rel: RelId,
        /// Index of the first CFD in the analyzed slice.
        left: usize,
        /// Index of the second CFD in the analyzed slice.
        right: usize,
        /// The RHS attribute receiving two different constants.
        attr: AttrId,
    },
    /// One CFD's pattern row subsumes another's on the same key group
    /// (the specific row is redundant under cover merging) yet the two
    /// carry conflicting RHS constants — the "redundant but
    /// contradictory" shape the cover would otherwise silently merge.
    RedundantConflict {
        /// Index of the more general CFD (its pattern subsumes).
        general: usize,
        /// Index of the more specific CFD (subsumed pattern).
        specific: usize,
        /// The RHS attribute receiving two different constants.
        attr: AttrId,
    },
    /// A CFD mentions a constant outside the attribute's finite domain:
    /// with `conclusion: false` the premise can never fire (the row is
    /// dead weight), with `conclusion: true` the conclusion can never
    /// hold (any tuple matching the premise is a violation).
    UnreachablePattern {
        /// Index of the CFD in the analyzed slice.
        cfd: usize,
        /// The attribute whose domain excludes the constant.
        attr: AttrId,
        /// `false`: an LHS pattern cell is unreachable; `true`: the RHS
        /// constant is unsatisfiable.
        conclusion: bool,
    },
    /// A CIND condition column pins a constant outside the attribute's
    /// finite domain, so the pattern can never match any tuple.
    CindConditionImpossible {
        /// Index of the CIND in the analyzed slice.
        cind: usize,
        /// `false`: the source-side `Xp` condition; `true`: the
        /// target-side `Yp` condition.
        target_side: bool,
        /// The attribute whose domain excludes the pinned constant.
        attr: AttrId,
    },
    /// A repair round's accepted edits all rewrote the same key class
    /// toward one value — the classic "majority was actually the dirt"
    /// blind spot (advisory only; repair behavior is unchanged).
    SuspectMajority {
        /// Relation whose tuples were rewritten.
        rel: RelId,
        /// Attribute that was rewritten.
        attr: AttrId,
        /// The value every accepted edit converged on.
        value: Value,
        /// How many cells were rewritten toward it.
        rewritten: usize,
    },
}

impl SigmaLint {
    /// CFD indices this lint references (for remapping).
    pub(crate) fn cfd_indices_mut(&mut self) -> Vec<&mut usize> {
        match self {
            SigmaLint::KeyGroupConflict { left, right, .. } => vec![left, right],
            SigmaLint::RedundantConflict {
                general, specific, ..
            } => vec![general, specific],
            SigmaLint::UnreachablePattern { cfd, .. } => vec![cfd],
            _ => Vec::new(),
        }
    }

    /// CIND indices this lint references (for remapping).
    pub(crate) fn cind_indices_mut(&mut self) -> Vec<&mut usize> {
        match self {
            SigmaLint::CindConditionImpossible { cind, .. } => vec![cind],
            _ => Vec::new(),
        }
    }

    /// Translate every dependency index through `map[analyzed] =
    /// original` (see [`crate::SigmaAnalysis::remap`]).
    pub fn remap(&mut self, cfd_map: &[usize], cind_map: &[usize]) {
        for i in self.cfd_indices_mut() {
            *i = cfd_map[*i];
        }
        for i in self.cind_indices_mut() {
            *i = cind_map[*i];
        }
    }
}

impl fmt::Display for SigmaLint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigmaLint::KeyGroupConflict {
                rel,
                left,
                right,
                attr,
            } => write!(
                f,
                "key-group conflict on relation {}: CFDs #{left} and #{right} force different \
                 constants on attribute {}",
                rel.0, attr.0
            ),
            SigmaLint::RedundantConflict {
                general,
                specific,
                attr,
            } => write!(
                f,
                "redundant conflict: CFD #{specific} is subsumed by #{general} but carries a \
                 different RHS constant on attribute {}",
                attr.0
            ),
            SigmaLint::UnreachablePattern {
                cfd,
                attr,
                conclusion,
            } => {
                if *conclusion {
                    write!(
                        f,
                        "CFD #{cfd}: RHS constant on attribute {} is outside the finite domain — \
                         the conclusion can never hold",
                        attr.0
                    )
                } else {
                    write!(
                        f,
                        "CFD #{cfd}: LHS pattern constant on attribute {} is outside the finite \
                         domain — the row can never match",
                        attr.0
                    )
                }
            }
            SigmaLint::CindConditionImpossible {
                cind,
                target_side,
                attr,
            } => {
                write!(
                f,
                "CIND #{cind}: {} condition on attribute {} pins a constant outside the finite \
                 domain — it can never match",
                if *target_side { "target-side" } else { "source-side" },
                attr.0
            )
            }
            SigmaLint::SuspectMajority {
                rel,
                attr,
                value,
                rewritten,
            } => write!(
                f,
                "suspect majority on relation {} attribute {}: {rewritten} accepted edits all \
                 rewrote toward {value:?} — the majority may be the dirt",
                rel.0, attr.0
            ),
        }
    }
}

/// `true` when some tuple can match both pattern rows over the same
/// canonical attribute list: cell-wise, constants must agree wherever
/// both are constant.
fn compatible(a: &[Option<&Value>], b: &[Option<&Value>]) -> bool {
    a.iter().zip(b).all(|(x, y)| match (x, y) {
        (Some(va), Some(vb)) => va == vb,
        _ => true,
    })
}

/// `true` when pattern `spec` is subsumed by `gen` (every tuple
/// matching `spec` matches `gen`): wherever `gen` is constant, `spec`
/// has the same constant.
fn subsumed(spec: &[Option<&Value>], general: &[Option<&Value>]) -> bool {
    spec.iter().zip(general).all(|(s, g)| match (s, g) {
        (_, None) => true,
        (Some(vs), Some(vg)) => vs == vg,
        (None, Some(_)) => false,
    })
}

/// Run the whole-Σ lint pass (domain reachability + key-group row
/// conflicts + CIND condition checks). Pure pattern/domain reasoning —
/// no solving.
pub(crate) fn lint_sigma(
    schema: &Schema,
    cfds: &[NormalCfd],
    cinds: &[NormalCind],
) -> Vec<SigmaLint> {
    let mut lints = Vec::new();
    lint_domains(schema, cfds, cinds, &mut lints);
    lint_rows(cfds, &mut lints);
    lints
}

/// Constants outside finite domains: unreachable CFD rows and
/// impossible CIND conditions.
fn lint_domains(
    schema: &Schema,
    cfds: &[NormalCfd],
    cinds: &[NormalCind],
    out: &mut Vec<SigmaLint>,
) {
    for (i, cfd) in cfds.iter().enumerate() {
        let Ok(rs) = schema.relation(cfd.rel()) else {
            continue;
        };
        for (pos, &attr) in cfd.lhs().iter().enumerate() {
            if let (Some(v), Ok(a)) = (cfd.lhs_pat().cell(pos).as_const(), rs.attribute(attr)) {
                if !a.domain().contains(v) {
                    out.push(SigmaLint::UnreachablePattern {
                        cfd: i,
                        attr,
                        conclusion: false,
                    });
                }
            }
        }
        if let (Some(v), Ok(a)) = (cfd.rhs_pat().as_const(), rs.attribute(cfd.rhs())) {
            if !a.domain().contains(v) {
                out.push(SigmaLint::UnreachablePattern {
                    cfd: i,
                    attr: cfd.rhs(),
                    conclusion: true,
                });
            }
        }
    }
    for (i, cind) in cinds.iter().enumerate() {
        for (target_side, rel, cond) in [
            (false, cind.lhs_rel(), cind.xp()),
            (true, cind.rhs_rel(), cind.yp()),
        ] {
            let Ok(rs) = schema.relation(rel) else {
                continue;
            };
            for (attr, v) in cond {
                if let Ok(a) = rs.attribute(*attr) {
                    if !a.domain().contains(v) {
                        out.push(SigmaLint::CindConditionImpossible {
                            cind: i,
                            target_side,
                            attr: *attr,
                        });
                    }
                }
            }
        }
    }
}

/// Pairwise key-group scan: constant-RHS rows on the same
/// `(relation, canonical LHS, RHS attr)` group whose patterns overlap
/// but whose constants differ. Schema-free.
fn lint_rows(cfds: &[NormalCfd], out: &mut Vec<SigmaLint>) {
    use std::collections::HashMap;
    // Group by (rel, sorted LHS attrs, rhs attr); only constant-RHS
    // rows can pairwise conflict on a single tuple.
    let mut groups: HashMap<(RelId, Vec<AttrId>, AttrId), Vec<usize>> = HashMap::new();
    for (i, cfd) in cfds.iter().enumerate() {
        if !matches!(cfd.rhs_pat(), PValue::Const(_)) {
            continue;
        }
        let (attrs, _) = cfd.canonical_lhs();
        groups
            .entry((cfd.rel(), attrs, cfd.rhs()))
            .or_default()
            .push(i);
    }
    let mut budget = LINT_PAIR_CAP;
    let mut keys: Vec<_> = groups.keys().cloned().collect();
    keys.sort();
    for key in keys {
        let members = &groups[&key];
        for (a, &i) in members.iter().enumerate() {
            for &j in &members[a + 1..] {
                if budget == 0 {
                    return;
                }
                budget -= 1;
                let (ci, cj) = (&cfds[i], &cfds[j]);
                if ci.rhs_pat() == cj.rhs_pat() {
                    continue; // same constant: duplicates, not a conflict
                }
                let (_, pi) = ci.canonical_lhs();
                let (_, pj) = cj.canonical_lhs();
                if !compatible(&pi, &pj) {
                    continue; // disjoint rows can never co-fire
                }
                let attr = key.2;
                if subsumed(&pi, &pj) && !subsumed(&pj, &pi) {
                    out.push(SigmaLint::RedundantConflict {
                        general: j,
                        specific: i,
                        attr,
                    });
                } else if subsumed(&pj, &pi) && !subsumed(&pi, &pj) {
                    out.push(SigmaLint::RedundantConflict {
                        general: i,
                        specific: j,
                        attr,
                    });
                } else {
                    out.push(SigmaLint::KeyGroupConflict {
                        rel: key.0,
                        left: i,
                        right: j,
                        attr,
                    });
                }
            }
        }
    }
}
