//! CFD syntax.

use condep_model::{AttrId, PValue, PatternRow, RelId, RelationSchema, Schema};
use std::fmt;

/// A conditional functional dependency `φ = (R: X → Y, Tp)`.
///
/// * `X` ([`Cfd::lhs`]) and `Y` ([`Cfd::rhs`]) are attribute lists of
///   relation `R`;
/// * every tableau row has one pattern cell per attribute of `X` followed
///   by one per attribute of `Y` (the paper's `tp[X] ‖ tp[Y]` layout).
///
/// A traditional FD is the special case whose tableau is a single
/// all-wildcard row (Example 4.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cfd {
    rel: RelId,
    lhs: Vec<AttrId>,
    rhs: Vec<AttrId>,
    tableau: Vec<PatternRow>,
}

impl Cfd {
    /// Creates a CFD; each row must have `lhs.len() + rhs.len()` cells.
    pub fn new(rel: RelId, lhs: Vec<AttrId>, rhs: Vec<AttrId>, tableau: Vec<PatternRow>) -> Self {
        for row in &tableau {
            assert_eq!(
                row.len(),
                lhs.len() + rhs.len(),
                "tableau row width must equal |X| + |Y|"
            );
        }
        Cfd {
            rel,
            lhs,
            rhs,
            tableau,
        }
    }

    /// The traditional FD `R: X → Y` as a CFD (single all-wildcard row).
    pub fn traditional(rel: RelId, lhs: Vec<AttrId>, rhs: Vec<AttrId>) -> Self {
        let row = PatternRow::all_any(lhs.len() + rhs.len());
        Cfd::new(rel, lhs, rhs, vec![row])
    }

    /// Resolves attribute names against `schema` — the ergonomic
    /// constructor used by fixtures and examples.
    pub fn parse(
        schema: &Schema,
        rel_name: &str,
        lhs_names: &[&str],
        rhs_names: &[&str],
        tableau: Vec<PatternRow>,
    ) -> condep_model::Result<Self> {
        let rel = schema.rel_id(rel_name)?;
        let rs = schema.relation(rel)?;
        let lhs = rs.attr_ids(lhs_names)?;
        let rhs = rs.attr_ids(rhs_names)?;
        Ok(Cfd::new(rel, lhs, rhs, tableau))
    }

    /// The relation the CFD is defined on.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// The LHS attribute list `X`.
    pub fn lhs(&self) -> &[AttrId] {
        &self.lhs
    }

    /// The RHS attribute list `Y`.
    pub fn rhs(&self) -> &[AttrId] {
        &self.rhs
    }

    /// The pattern tableau `Tp`.
    pub fn tableau(&self) -> &[PatternRow] {
        &self.tableau
    }

    /// Splits a tableau row into its `(tp[X], tp[Y])` parts.
    pub fn split_row<'a>(&self, row: &'a PatternRow) -> (&'a [PValue], &'a [PValue]) {
        row.cells().split_at(self.lhs.len())
    }

    /// Is this syntactically a traditional FD (single all-wildcard row)?
    pub fn is_traditional(&self) -> bool {
        self.tableau.len() == 1 && self.tableau[0].is_all_any()
    }

    /// Renders the CFD with attribute names from `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        CfdDisplay { cfd: self, schema }
    }
}

struct CfdDisplay<'a> {
    cfd: &'a Cfd,
    schema: &'a Schema,
}

fn names(rs: &RelationSchema, attrs: &[AttrId]) -> String {
    attrs
        .iter()
        .map(|a| {
            rs.attribute(*a)
                .map(|at| at.name().to_string())
                .unwrap_or_else(|_| a.to_string())
        })
        .collect::<Vec<_>>()
        .join(", ")
}

impl fmt::Display for CfdDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rs = match self.schema.relation(self.cfd.rel) {
            Ok(rs) => rs,
            Err(_) => return write!(f, "<invalid relation {}>", self.cfd.rel),
        };
        write!(
            f,
            "({}: [{}] -> [{}], {{",
            rs.name(),
            names(rs, &self.cfd.lhs),
            names(rs, &self.cfd.rhs)
        )?;
        for (i, row) in self.cfd.tableau.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let (x, y) = self.cfd.split_row(row);
            write!(f, "(")?;
            for (j, c) in x.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
            write!(f, " || ")?;
            for (j, c) in y.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
            write!(f, ")")?;
        }
        write!(f, "}})")
    }
}

/// A CFD in normal form: `(R: X → A, tp)` — one RHS attribute, one
/// pattern row (paper, Section 4).
///
/// All reasoning in the workspace operates on normal forms; use
/// [`crate::normalize()`] to convert.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct NormalCfd {
    rel: RelId,
    lhs: Vec<AttrId>,
    lhs_pat: PatternRow,
    rhs: AttrId,
    rhs_pat: PValue,
}

impl NormalCfd {
    /// Creates a normal-form CFD; `lhs_pat` must align with `lhs`.
    pub fn new(
        rel: RelId,
        lhs: Vec<AttrId>,
        lhs_pat: PatternRow,
        rhs: AttrId,
        rhs_pat: PValue,
    ) -> Self {
        assert_eq!(lhs.len(), lhs_pat.len(), "LHS pattern must align with X");
        NormalCfd {
            rel,
            lhs,
            lhs_pat,
            rhs,
            rhs_pat,
        }
    }

    /// Name-resolving constructor.
    pub fn parse(
        schema: &Schema,
        rel_name: &str,
        lhs_names: &[&str],
        lhs_pat: PatternRow,
        rhs_name: &str,
        rhs_pat: PValue,
    ) -> condep_model::Result<Self> {
        let rel = schema.rel_id(rel_name)?;
        let rs = schema.relation(rel)?;
        Ok(NormalCfd::new(
            rel,
            rs.attr_ids(lhs_names)?,
            lhs_pat,
            rs.attr_id(rhs_name)?,
            rhs_pat,
        ))
    }

    /// The relation the CFD is defined on.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// The LHS attribute list `X`.
    pub fn lhs(&self) -> &[AttrId] {
        &self.lhs
    }

    /// The LHS pattern `tp[X]`.
    pub fn lhs_pat(&self) -> &PatternRow {
        &self.lhs_pat
    }

    /// The single RHS attribute `A`.
    pub fn rhs(&self) -> AttrId {
        self.rhs
    }

    /// The RHS pattern cell `tp[A]`.
    pub fn rhs_pat(&self) -> &PValue {
        &self.rhs_pat
    }

    /// Is the RHS pattern a constant? Constant-RHS CFDs can be violated
    /// by a single tuple.
    pub fn is_constant_rhs(&self) -> bool {
        self.rhs_pat.is_const()
    }

    /// Is the CFD **trivially** satisfied by every instance?
    ///
    /// That is the case exactly when `A ∈ X` and the RHS pattern does
    /// not add information beyond the LHS cell for `A`: a wildcard RHS
    /// (two tuples agreeing on `X ∋ A` agree on `A` by definition), or a
    /// constant RHS equal to the LHS constant on `A` (every matching
    /// tuple already carries it). A constant RHS under a wildcard LHS
    /// cell is *not* trivial — it forces the constant. Discovery uses
    /// this to drop vacuous candidates before ranking.
    pub fn is_trivial(&self) -> bool {
        self.lhs.iter().zip(self.lhs_pat.cells()).any(|(a, cell)| {
            *a == self.rhs
                && match &self.rhs_pat {
                    PValue::Any => true,
                    PValue::Const(c) => cell.as_const() == Some(c),
                }
        })
    }

    /// The LHS canonicalized for set-level grouping: attributes sorted,
    /// pattern cells permuted in lock-step (`None` = wildcard). Two
    /// CFDs over permuted versions of the same LHS attribute set yield
    /// the same attribute list, so they share one group-by index. The
    /// `condep-validate` engine groups through this one definition, and
    /// the Σ analyzer's lints compare patterns in its order.
    pub fn canonical_lhs(&self) -> (Vec<AttrId>, Vec<Option<&condep_model::Value>>) {
        let mut cols: Vec<(AttrId, Option<&condep_model::Value>)> = self
            .lhs
            .iter()
            .zip(self.lhs_pat.cells())
            .map(|(a, c)| (*a, c.as_const()))
            .collect();
        cols.sort_by_key(|&(a, _)| a);
        let attrs = cols.iter().map(|&(a, _)| a).collect();
        let pattern = cols.into_iter().map(|(_, c)| c).collect();
        (attrs, pattern)
    }

    /// All constants appearing in the pattern, with their attributes.
    pub fn pattern_constants(&self) -> Vec<(AttrId, condep_model::Value)> {
        let mut out: Vec<(AttrId, condep_model::Value)> = self
            .lhs
            .iter()
            .zip(self.lhs_pat.cells())
            .filter_map(|(a, c)| c.as_const().map(|v| (*a, v.clone())))
            .collect();
        if let PValue::Const(v) = &self.rhs_pat {
            out.push((self.rhs, v.clone()));
        }
        out
    }

    /// Renders with attribute names from `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        NormalCfdDisplay { cfd: self, schema }
    }
}

struct NormalCfdDisplay<'a> {
    cfd: &'a NormalCfd,
    schema: &'a Schema,
}

impl fmt::Display for NormalCfdDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rs = match self.schema.relation(self.cfd.rel) {
            Ok(rs) => rs,
            Err(_) => return write!(f, "<invalid relation {}>", self.cfd.rel),
        };
        let a_name = rs
            .attribute(self.cfd.rhs)
            .map(|a| a.name().to_string())
            .unwrap_or_else(|_| self.cfd.rhs.to_string());
        write!(
            f,
            "({}: [{}] -> {}, {} || {})",
            rs.name(),
            names(rs, &self.cfd.lhs),
            a_name,
            self.cfd.lhs_pat,
            self.cfd.rhs_pat
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condep_model::{fixtures::bank_schema, prow};

    #[test]
    fn parse_resolves_names() {
        let schema = bank_schema();
        let cfd = Cfd::parse(
            &schema,
            "interest",
            &["ct", "at"],
            &["rt"],
            vec![prow![_, _, _], prow!["UK", "saving", "4.5%"]],
        )
        .unwrap();
        assert_eq!(cfd.lhs().len(), 2);
        assert_eq!(cfd.rhs().len(), 1);
        assert_eq!(cfd.tableau().len(), 2);
        assert!(!cfd.is_traditional());
    }

    #[test]
    fn traditional_constructor_is_all_wildcard() {
        let schema = bank_schema();
        let saving = schema.rel_id("saving").unwrap();
        let rs = schema.relation(saving).unwrap();
        let cfd = Cfd::traditional(
            saving,
            rs.attr_ids(&["an", "ab"]).unwrap(),
            rs.attr_ids(&["cn", "ca", "cp"]).unwrap(),
        );
        assert!(cfd.is_traditional());
        assert_eq!(cfd.tableau()[0].len(), 5);
    }

    #[test]
    #[should_panic(expected = "tableau row width")]
    fn misaligned_row_panics() {
        let schema = bank_schema();
        let saving = schema.rel_id("saving").unwrap();
        let rs = schema.relation(saving).unwrap();
        Cfd::new(
            saving,
            rs.attr_ids(&["an"]).unwrap(),
            rs.attr_ids(&["cn"]).unwrap(),
            vec![prow![_, _, _]],
        );
    }

    #[test]
    fn split_row_partitions_cells() {
        let schema = bank_schema();
        let cfd = Cfd::parse(
            &schema,
            "interest",
            &["ct", "at"],
            &["rt"],
            vec![prow!["UK", "checking", "1.5%"]],
        )
        .unwrap();
        let (x, y) = cfd.split_row(&cfd.tableau()[0]);
        assert_eq!(x.len(), 2);
        assert_eq!(y.len(), 1);
        assert_eq!(y[0], PValue::constant("1.5%"));
    }

    #[test]
    fn normal_cfd_accessors() {
        let schema = bank_schema();
        let n = NormalCfd::parse(
            &schema,
            "interest",
            &["ct", "at"],
            prow!["UK", "checking"],
            "rt",
            PValue::constant("1.5%"),
        )
        .unwrap();
        assert!(n.is_constant_rhs());
        assert_eq!(n.pattern_constants().len(), 3);
        let shown = n.display(&schema).to_string();
        assert!(shown.contains("interest"));
        assert!(shown.contains("1.5%"));
    }

    #[test]
    fn display_general_cfd() {
        let schema = bank_schema();
        let cfd = Cfd::parse(
            &schema,
            "interest",
            &["ct", "at"],
            &["rt"],
            vec![prow![_, _, _]],
        )
        .unwrap();
        let s = cfd.display(&schema).to_string();
        assert!(s.contains("interest"));
        assert!(s.contains("ct, at"));
        assert!(s.contains("||"));
    }
}
