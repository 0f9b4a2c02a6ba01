package repro.core.ir

import repro.core.ir.Ir._
import scala.util.Random

/** Semantic canonicalization of SPJ plans and predicates (§3.1):
  *
  *  - scalar expressions fold into linear normal form `Σ coefᵢ·colᵢ + c`;
  *  - predicates normalize to `lin ⊲ 0` with ⊲ ∈ {<, ≤, =} and a canonical
  *    sign for equalities;
  *  - plans flatten into `(atoms, conjuncts, projection)` — the normal form
  *    the verifier decides over and the rewriter re-renders from.
  */
object Canon {

  /** Linear form Σ coefs(col)·col + const. */
  final case class Lin(coefs: Map[ColRef, Double], const: Double) {
    def +(o: Lin): Lin =
      Lin(merge(coefs, o.coefs, 1.0), const + o.const)
    def -(o: Lin): Lin =
      Lin(merge(coefs, o.coefs, -1.0), const - o.const)
    def negate: Lin = Lin(coefs.map { case (k, v) => k -> -v }, -const)
    private def merge(a: Map[ColRef, Double], b: Map[ColRef, Double], s: Double) =
      (a.keySet ++ b.keySet).iterator
        .map(k => k -> (a.getOrElse(k, 0.0) + s * b.getOrElse(k, 0.0)))
        .filter(_._2 != 0.0)
        .toMap
  }

  def lin(s: Scalar): Lin = s match {
    case Col(r)    => Lin(Map(r -> 1.0), 0.0)
    case Lit(v)    => Lin(Map.empty, v)
    case Add(a, b) => lin(a) + lin(b)
    case Sub(a, b) => lin(a) - lin(b)
  }

  /** Normalized comparison operators (strict less, non-strict less, equal). */
  sealed abstract class NOp(val repr: String)
  case object NLt extends NOp("<")
  case object NLe extends NOp("<=")
  case object NEq extends NOp("=")

  private implicit val colOrd: Ordering[ColRef] =
    Ordering.by((r: ColRef) => (r.table, r.column))

  /** Canonical predicate: sorted coefficient list, `lin ⊲ 0`. Equalities get
    * a canonical sign (first coefficient positive). Structural equality of
    * two NormPreds is semantic equality of the source predicates.
    */
  final case class NormPred(coefs: List[(ColRef, Double)], const: Double, op: NOp) {
    def cols: Set[ColRef] = coefs.map(_._1).toSet

    /** True when this is a difference-logic constraint the DBM prover and
      * the stochastic renderer handle: ≤ 2 columns with ±1 coefficients, of
      * opposite sign when there are two.
      */
    def isDifferenceForm: Boolean = coefs match {
      case Nil                          => true
      case (_, a) :: Nil                => math.abs(a) == 1.0
      case (_, a) :: (_, b) :: Nil      => math.abs(a) == 1.0 && a == -b
      case _                            => false
    }

    def key: String =
      coefs.map { case (c, v) => f"${v}%.4f*${c.sql}" }.mkString("+") +
        f"${const}%.4f${op.repr}0"
  }

  def toNorm(l: Lin, op: NOp): NormPred = {
    val canonical =
      if (op == NEq && l.coefs.nonEmpty) {
        val first = l.coefs.keys.min
        if (l.coefs(first) < 0) l.negate else l
      } else l
    NormPred(canonical.coefs.toList.sortBy(_._1), canonical.const, op)
  }

  /** `p` as `lin ⊲ 0`: e.g. `a > b` becomes `b − a < 0`. */
  def normalize(p: Pred): NormPred = {
    val l = lin(p.left); val r = lin(p.right)
    p.op match {
      case Lt => toNorm(l - r, NLt)
      case Le => toNorm(l - r, NLe)
      case Eq => toNorm(l - r, NEq)
      case Gt => toNorm(r - l, NLt)
      case Ge => toNorm(r - l, NLe)
    }
  }

  /** Flattened SPJ normal form: inner joins dissolve into the conjunct set. */
  final case class Flat(atoms: Seq[Scan], conjuncts: Vector[NormPred], proj: Seq[ColRef]) {
    def tableMultiset: Seq[String] = atoms.map(_.table).sorted
  }

  def flatten(p: Plan): Flat = {
    def go(pl: Plan): (Seq[Scan], Vector[NormPred]) = pl match {
      case s: Scan => (Seq(s), Vector.empty)
      case Filter(pred, c) =>
        val (a, cj) = go(c); (a, cj :+ normalize(pred))
      case Join(Inner, l, r, cond) =>
        val (al, cl) = go(l); val (ar, cr) = go(r)
        (al ++ ar, (cl ++ cr) :+ normalize(cond))
      case Join(jt, _, _, _) =>
        throw new IllegalArgumentException(s"flatten: non-inner join $jt")
      case Project(_, _) =>
        throw new IllegalArgumentException("flatten: Project below the root")
    }
    p match {
      case Project(cols, c) => val (a, cj) = go(c); Flat(a, cj, cols)
      case other            => val (a, cj) = go(other); Flat(a, cj, other.output)
    }
  }

  /** Apply an atom-alias substitution to a normalized predicate. */
  def rename(np: NormPred, sub: Map[String, String]): NormPred =
    toNorm(
      Lin(np.coefs.map { case (ColRef(t, c), v) =>
        ColRef(sub.getOrElse(t, t), c) -> v
      }.toMap, np.const),
      np.op)

  // -------------------------------------------------------------------------
  // Stochastic syntactic re-rendering (the WeTune/AMOEBA-substitute core):
  // sample one of the many syntactic spellings of a normalized predicate.
  // -------------------------------------------------------------------------

  private def litShift(base: Scalar, k: Double): Scalar =
    if (k == 0) base
    else if (k > 0) Add(base, Lit(k))
    else Sub(base, Lit(-k))

  /** Render `np` (difference form) back to a random syntactic [[Pred]].
    * normalize(renderPred(np, rng)) == np for every rng (property-tested).
    */
  def renderPred(np: NormPred, rng: Random): Pred = {
    require(np.isDifferenceForm, s"not difference form: $np")
    val shift = rng.nextInt(9) - 4 // spread constants across both sides
    val p: Pred = np.coefs match {
      case Nil =>
        // Degenerate constant comparison (shouldn't be generated, but total).
        Pred(Lit(np.const), opFor(np.op), Lit(0))
      case (x, a) :: Nil =>
        // a·x + c ⊲ 0  ⇒  x ⊲ -c (a=1)  or  -c/−1 ⊳ ... (a=-1 ⇒ x ⊳ c)
        if (a > 0) Pred(litShift(Col(x), shift), opFor(np.op), Lit(-np.const + shift))
        else       Pred(Lit(np.const + shift), opFor(np.op), litShift(Col(x), shift))
      case (x, a) :: (y, _) :: Nil =>
        // x − y + c ⊲ 0 ⇒ x ⊲ y − c   (orient so the +1 column leads)
        val (pos, neg) = if (a > 0) (x, y) else (y, x)
        rng.nextInt(3) match {
          case 0 => Pred(litShift(Col(pos), shift), opFor(np.op),
                         litShift(Col(neg), -np.const + shift))
          case 1 => Pred(Sub(Col(pos), Col(neg)), opFor(np.op), Lit(-np.const))
          case _ => Pred(litShift(Col(pos), np.const + shift), opFor(np.op),
                         litShift(Col(neg), shift))
        }
    }
    if (rng.nextBoolean()) p.flip else p
  }

  private def opFor(n: NOp): CmpOp = n match {
    case NLt => Lt
    case NLe => Le
    case NEq => Eq
  }
}
