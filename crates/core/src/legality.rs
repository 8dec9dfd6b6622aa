//! Legality checking with exact polyhedral dependence analysis.
//!
//! Layer I gives the program pure producer–consumer semantics: the value
//! `P(g(c))` read by consumer instance `C(c)` must be produced before it is
//! consumed. A schedule is legal when every such flow dependence is
//! respected by the lexicographic order of the final time–space mapping
//! (§II: "TIRAMISU avoids over-conservative constraints by relying on
//! dependence analysis to check for the correctness of code
//! transformations" — this is what lets it fuse loops Halide must refuse,
//! and schedule programs with cyclic buffer dataflow like `edgeDetector`).

use crate::expr::CompId;
use crate::function::{CompKind, Error, Function, Result};
use crate::lowering::full_schedule;
use crate::schedule::access_map;
use polyhedral::{deps, BasicMap, Map};
use std::borrow::Cow;

/// One violated (or checked) dependence.
#[derive(Debug, Clone)]
pub struct FlowDep {
    /// Producing computation.
    pub producer: CompId,
    /// Consuming computation.
    pub consumer: CompId,
    /// `{ producer iterations → consumer iterations }`.
    pub relation: Map,
}

/// Computes all Layer I flow dependences of the function: for every access
/// `P(g(c))` in a consumer `C`, the relation `{ p → c : p = g(c) }`
/// restricted to both domains. Non-affine accesses over-approximate
/// (producer dimension unconstrained within its domain), exactly as §V-B
/// prescribes.
///
/// # Errors
///
/// Propagates polyhedral space errors.
pub fn flow_deps(f: &Function) -> Result<Vec<FlowDep>> {
    let mut out = Vec::new();
    for (ci, consumer) in f.comps.iter().enumerate() {
        if consumer.kind != CompKind::Computation || consumer.inlined {
            continue;
        }
        let Some(expr) = &consumer.expr else { continue };
        for (pid, idx) in expr.accesses() {
            let producer = f.comp(pid);
            if producer.kind != CompKind::Computation || producer.inlined {
                continue; // inputs impose no ordering
            }
            let read = access_map(consumer, idx, producer.domain.space(), &f.params)?;
            // consumer-domain -> producer-domain; restrict and reverse.
            let restricted = read
                .intersect_domain(&consumer.domain)?
                .intersect_range(&producer.domain)?;
            let rel = restricted.reverse();
            if rel.is_empty() {
                continue;
            }
            out.push(FlowDep {
                producer: pid,
                consumer: CompId(ci as u32),
                relation: Map::from_basic(rel),
            });
        }
    }
    Ok(out)
}

/// Checks that the current schedules respect every flow dependence.
/// Returns the violated dependences (empty = legal).
///
/// ```
/// use tiramisu::{Function, Expr as E, At};
/// let mut f = Function::new("t", &["N"]);
/// let i = f.var("i", 0, E::param("N"));
/// let a = f.computation("A", &[i.clone()], E::f32(1.0)).unwrap();
/// let b = f.computation("B", &[i], f.access(a, &[E::iter("i")])).unwrap();
/// assert!(tiramisu::legality::check(&f).unwrap().is_empty());
/// f.after(a, b, At::Root).unwrap(); // producer after consumer
/// assert!(!tiramisu::legality::check(&f).unwrap().is_empty());
/// ```
///
/// # Errors
///
/// Propagates polyhedral space errors.
pub fn check(f: &Function) -> Result<Vec<FlowDep>> {
    check_deps(f, &flow_deps(f)?)
}

/// [`check`] against dependences already derived by [`flow_deps`]. They
/// depend on Layer I only, so a search over schedules of one algorithm
/// derives them once.
///
/// # Errors
///
/// Propagates polyhedral space errors.
pub fn check_deps(f: &Function, deps_list: &[FlowDep]) -> Result<Vec<FlowDep>> {
    let mut violated = Vec::new();
    let mut scheds = Schedules::new(f);
    for d in deps_list {
        let Some((rel, sp, sc)) = scheds.ordered(d)? else { continue };
        if !deps::is_respected(&rel, sp, sc) {
            violated.push(d.clone());
        }
    }
    Ok(violated)
}

/// The error a violated dependence is reported as.
pub(crate) fn illegal(f: &Function, d: &FlowDep) -> Error {
    Error::Illegal(format!(
        "schedule violates the flow dependence {} -> {}",
        f.comp(d.producer).name,
        f.comp(d.consumer).name
    ))
}

/// Convenience: returns an error when any dependence is violated.
///
/// # Errors
///
/// [`Error::Illegal`] naming the first violated dependence.
pub fn assert_legal(f: &Function) -> Result<()> {
    match check(f)?.first() {
        Some(d) => Err(illegal(f, d)),
        None => Ok(()),
    }
}

/// Checks whether loop level `level_name` of `comp` can be run in
/// parallel: no flow dependence may be *carried* by that loop (source and
/// sink in different iterations of it while sharing all outer loops).
/// This is the check behind `parallelize()` and the auto-scheduler's
/// outermost-parallelism detection.
///
/// # Errors
///
/// [`Error::UnknownLevel`] and polyhedral space errors.
pub fn parallel_ok(f: &Function, comp: CompId, level_name: &str) -> Result<bool> {
    parallel_ok_deps(f, &flow_deps(f)?, comp, level_name)
}

/// [`parallel_ok`] against dependences already derived by [`flow_deps`].
///
/// # Errors
///
/// [`Error::UnknownLevel`] and polyhedral space errors.
pub fn parallel_ok_deps(
    f: &Function,
    deps_list: &[FlowDep],
    comp: CompId,
    level_name: &str,
) -> Result<bool> {
    let level = f
        .comp(comp)
        .level_of(level_name)
        .ok_or_else(|| Error::UnknownLevel(level_name.to_string()))?;
    let pos = 2 * level + 1; // dynamic time position
    let mut scheds = Schedules::new(f);
    for d in deps_list {
        let Some((rel, sp, sc)) = scheds.ordered(d)? else { continue };
        if rel.basics().iter().any(|bm| deps::is_carried(bm, sp, sc, pos)) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The full `2d+1` schedules of one function state, built on first use.
struct Schedules<'f> {
    f: &'f Function,
    depth: usize,
    built: std::collections::HashMap<u32, BasicMap>,
}

impl<'f> Schedules<'f> {
    fn new(f: &'f Function) -> Self {
        let depth = f
            .comps
            .iter()
            .filter(|c| c.kind == CompKind::Computation && !c.inlined)
            .map(|c| c.dyn_names.len())
            .max()
            .unwrap_or(1);
        Schedules { f, depth, built: Default::default() }
    }

    /// The pairs of `d` that a schedule must order, with the producer's
    /// and the consumer's schedule; `None` when there is nothing to check.
    fn ordered<'d>(
        &mut self,
        d: &'d FlowDep,
    ) -> Result<Option<(Cow<'d, Map>, &BasicMap, &BasicMap)>> {
        let f = self.f;
        // `compute_at` makes the producer's schedule a genuine relation
        // (each instance may execute several times — overlapped tiling).
        // A pairwise check would conservatively reject those even though
        // compute_at places the needed region before its consumer by
        // construction, so they are skipped.
        if f.comp(d.producer).redundant || f.comp(d.consumer).redundant {
            return Ok(None);
        }
        // Self-dependences where producer instance == consumer instance
        // (e.g. a computation reading itself at the same point) are
        // excluded by construction: identical schedules at equal points
        // compare equal and would always "violate"; reading your own value
        // at the same iteration is not a real dependence.
        let rel = if d.producer == d.consumer {
            Cow::Owned(remove_identity(&d.relation)?)
        } else {
            Cow::Borrowed(&d.relation)
        };
        // `flow_deps` keeps non-empty relations and subtraction non-empty
        // pieces, so no piece is left exactly when nothing is.
        if rel.basics().is_empty() {
            return Ok(None);
        }
        for id in [d.producer, d.consumer] {
            if !self.built.contains_key(&id.0) {
                self.built.insert(id.0, full_schedule(f, id, self.depth)?);
            }
        }
        Ok(Some((rel, &self.built[&d.producer.0], &self.built[&d.consumer.0])))
    }
}

/// Removes the identity pairs `i → i` from a self-dependence relation.
fn remove_identity(rel: &Map) -> Result<Map> {
    let space = rel.space().clone();
    let id = BasicMap::identity(space.in_space());
    let id_map = Map::from_basic(id);
    rel.subtract(&id_map).map_err(Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::schedule::At;

    /// bx produces, by consumes bx(i) and bx(i+1).
    fn producer_consumer() -> (Function, CompId, CompId) {
        let mut f = Function::new("t", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let bx = f
            .computation("bx", std::slice::from_ref(&i), Expr::f32(1.0))
            .unwrap();
        let i2 = f.var("i", 0, Expr::param("N") - Expr::i64(1));
        let read = f.access(bx, &[Expr::iter("i")])
            + f.access(bx, &[Expr::iter("i") + Expr::i64(1)]);
        let by = f.computation("by", &[i2], read).unwrap();
        (f, bx, by)
    }

    #[test]
    fn default_order_is_legal() {
        let (f, _, _) = producer_consumer();
        assert!(check(&f).unwrap().is_empty());
        assert!(assert_legal(&f).is_ok());
    }

    #[test]
    fn reversing_order_is_illegal() {
        let (mut f, bx, by) = producer_consumer();
        // Schedule bx after by: violates the flow dependence.
        f.after(bx, by, At::Root).unwrap();
        let v = check(&f).unwrap();
        assert!(!v.is_empty()); // one violation per read access
        assert!(matches!(assert_legal(&f), Err(Error::Illegal(_))));
    }

    #[test]
    fn fusion_with_shift_is_legal_but_plain_fusion_is_not() {
        // by(i) reads bx(i + 1): fusing at level i with identical schedules
        // makes iteration i of by read bx(i+1), produced later — illegal.
        // Shifting by by one iteration legalizes it (classic).
        let mut f = Function::new("t", &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let bx = f.computation("bx", std::slice::from_ref(&i), Expr::f32(1.0)).unwrap();
        let i2 = f.var("i", 0, Expr::param("N") - Expr::i64(1));
        let read = f.access(bx, &[Expr::iter("i") + Expr::i64(1)]);
        let by = f.computation("by", &[i2], read).unwrap();
        f.fuse_after(by, bx, "i").unwrap();
        assert_eq!(check(&f).unwrap().len(), 1, "plain fusion must be illegal");
        // Shift by's loop by +1 (it then reads bx(i' ) with i' <= current).
        f.shift(by, "i", 1).unwrap();
        assert!(check(&f).unwrap().is_empty(), "shifted fusion must be legal");
    }

    #[test]
    fn reduction_self_dependence_blocks_reordering() {
        // acc(k) = acc(k-1) + 1: reversing the k loop is illegal.
        let mut f = Function::new("t", &["N"]);
        let k = f.var("k", 1, Expr::param("N"));
        let hold = f.var("k", 0, Expr::param("N"));
        let _ = hold;
        let acc = {
            let f2 = &mut f;
            let read = Expr::Access(CompId(0), vec![Expr::iter("k") - Expr::i64(1)]);
            f2.computation("acc", &[k], read + Expr::f32(1.0)).unwrap()
        };
        assert!(check(&f).unwrap().is_empty());
        // Reverse the loop: k -> -k via set_schedule.
        f.set_schedule(acc, &["t"], &["t = 0 - k"]).unwrap();
        assert_eq!(check(&f).unwrap().len(), 1);
    }

    #[test]
    fn cyclic_dataflow_is_analyzable() {
        // The paper's edgeDetector argument: R reads Img, Img2 reads R —
        // a cycle over *buffers* is fine at Layer I because instances are
        // distinct; dependence analysis proves the default order legal.
        let mut f = Function::new("edge", &["N"]);
        let i = f.var("i", 1, Expr::param("N") - Expr::i64(1));
        let img = f.input("img", &[f.var("i", 0, Expr::param("N"))]).unwrap();
        let r = f
            .computation(
                "R",
                std::slice::from_ref(&i),
                f.access(img, &[Expr::iter("i") - Expr::i64(1)])
                    + f.access(img, &[Expr::iter("i") + Expr::i64(1)]),
            )
            .unwrap();
        let i2 = f.var("i", 1, Expr::param("N") - Expr::i64(2));
        let _img2 = f
            .computation(
                "Img2",
                &[i2],
                Expr::abs(
                    f.access(r, &[Expr::iter("i")]) - f.access(r, &[Expr::iter("i") + Expr::i64(1)]),
                ),
            )
            .unwrap();
        assert!(check(&f).unwrap().is_empty());
    }
}
